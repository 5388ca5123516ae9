//! Host diagnostics recorded beside every run, so a change in the
//! benchmark's figures can be told apart from host drift: a compute-only
//! loop (`host.spin_ns`) and a 64 MiB pointer chase (`host.chase_ns`), whose
//! speed follows host memory latency the way the simulator's does.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

const SPIN_STEPS: u64 = 20_000_000;
const CHASE_BYTES: usize = 64 << 20;
const LINE_WORDS: usize = 16; // u32 words per 64-byte cache line
const CHASE_STEPS: usize = 1 << 20;

/// Host time per step of a dependent multiply-xorshift chain.
fn spin_once() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..SPIN_STEPS {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
        x ^= x >> 29;
    }
    black_box(x);
    t0.elapsed().as_nanos() as f64 / SPIN_STEPS as f64
}

/// A buffer of 64 MiB whose cache lines form one random cycle: the first
/// word of each line holds the index of the next line's first word.
pub struct Chase {
    words: Vec<u32>,
}

impl Chase {
    /// Builds the cycle (Sattolo's shuffle over the lines) from `seed`.
    pub fn new(seed: u64) -> Self {
        let lines = CHASE_BYTES / 4 / LINE_WORDS;
        let mut order: Vec<u32> = (0..lines as u32).collect();
        let mut x = seed | 1;
        for i in (1..lines).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % i as u64) as usize);
        }
        let mut words = vec![0u32; CHASE_BYTES / 4];
        for (line, next) in order.iter().enumerate() {
            words[line * LINE_WORDS] = next * LINE_WORDS as u32;
        }
        Self { words }
    }

    /// Host time per dependent load.
    fn once(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.words[at as usize];
        }
        black_box(at);
        t0.elapsed().as_nanos() as f64 / CHASE_STEPS as f64
    }
}

/// Spin and chase samples taken so far.
#[derive(Default)]
pub struct HostProbe {
    spin: Vec<f64>,
    chase: Vec<f64>,
}

impl HostProbe {
    /// Takes `reps` samples of each.
    pub fn sample(&mut self, chase: &Chase, reps: usize) {
        for _ in 0..reps {
            self.spin.push(spin_once());
            self.chase.push(chase.once());
        }
    }

    /// Median (spin ns/step, chase ns/load).
    pub fn medians(&mut self) -> (f64, f64) {
        (median(&mut self.spin), median(&mut self.chase))
    }
}

/// This process's peak resident set, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
