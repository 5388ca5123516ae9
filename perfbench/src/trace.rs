//! Pass-through decorators over the simulator's public traits that charge
//! host time to layers from outside the program.
//!
//! Each decorator forwards every call unchanged and, on sampled accesses,
//! times the call and charges it to one [`Layer`]. An access is sampled
//! with probability 1/[`SAMPLE_EVERY`], decided when the driver asks the
//! stream for the access's address, so every call that access makes is
//! timed or none is. Sampling keeps the tracing overhead small; random
//! (not periodic) choice keeps it from aliasing with periodic streams.

use asap_cache::AccessResult;
use asap_core::{EngineOutcome, EngineStats, SimMachine, TranslationEngine, TranslationPath};
use asap_os::OsError;
use asap_types::{CacheLineAddr, PhysAddr, VirtAddr};
use asap_workloads::AccessStream;
use std::cell::Cell;
use std::time::Instant;

/// One access in this many is timed.
pub const SAMPLE_EVERY: u64 = 8;

/// The layers a traced run charges host time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `AccessStream::next_va`.
    Workloads,
    /// `SimMachine::demand_page` on a native process.
    Os,
    /// `SimMachine::demand_page` on a virtual machine.
    Virt,
    /// `translate_access` served without a walk (a TLB path).
    Tlb,
    /// `translate_access` that walked, in the paper's MMUs.
    Core,
    /// `translate_access` that walked, in a contender backend.
    Contenders,
    /// `data_access`.
    CacheData,
    /// `corunner_access`.
    CacheCorunner,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Workloads,
        Layer::Os,
        Layer::Virt,
        Layer::Tlb,
        Layer::Core,
        Layer::Contenders,
        Layer::CacheData,
        Layer::CacheCorunner,
    ];

    /// The metric name stem (`<stem>_ns`, `<stem>.share`).
    pub fn stem(self) -> &'static str {
        match self {
            Layer::Workloads => "workloads.next_va",
            Layer::Os => "os.demand_page",
            Layer::Virt => "virt.demand_page",
            Layer::Tlb => "tlb.translate_hit",
            Layer::Core => "core.translate_walk",
            Layer::Contenders => "contenders.translate_walk",
            Layer::CacheData => "cache.data_access",
            Layer::CacheCorunner => "cache.corunner_access",
        }
    }
}

/// Call counts and sampled span time for one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    /// Every call made.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Host time of the timed calls.
    pub sampled_ns: u64,
}

impl LayerTotals {
    /// Mean host time per call, less the cost of reading the clock.
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            (self.sampled_ns as f64 / self.sampled as f64 - clock_ns).max(0.0)
        }
    }

    /// Estimated host time of every call (sampled mean x calls).
    pub fn est_ns(&self, clock_ns: f64) -> f64 {
        self.ns_per_call(clock_ns) * self.calls as f64
    }
}

/// The span accumulator every decorator of one run shares. Single-threaded:
/// the benchmark drives the simulator from one thread.
#[derive(Debug)]
pub struct Spans {
    sampled: Cell<bool>,
    rng: Cell<u64>,
    totals: [Cell<LayerTotals>; Layer::ALL.len()],
}

impl Spans {
    /// An empty accumulator whose sampling draws start from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            sampled: Cell::new(false),
            rng: Cell::new(seed | 1),
            totals: Default::default(),
        }
    }

    /// The totals so far, in [`Layer::ALL`] order.
    pub fn totals(&self) -> [LayerTotals; Layer::ALL.len()] {
        std::array::from_fn(|i| self.totals[i].get())
    }

    /// Starts a new access: decides whether its calls are timed.
    fn begin_access(&self) {
        // xorshift64: cheap, and independent of the simulator's own RNGs.
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        self.sampled.set(x.is_multiple_of(SAMPLE_EVERY));
    }

    fn record(&self, layer: Layer, started: Option<Instant>) {
        let cell = &self.totals[layer as usize];
        let mut t = cell.get();
        t.calls += 1;
        if let Some(t0) = started {
            t.sampled += 1;
            t.sampled_ns += t0.elapsed().as_nanos() as u64;
        }
        cell.set(t);
    }

    fn start(&self) -> Option<Instant> {
        self.sampled.get().then(Instant::now)
    }

    /// Runs `f`, charging it to `layer`.
    fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = self.start();
        let out = f();
        self.record(layer, t0);
        out
    }
}

/// Times `AccessStream::next_va` (layer `workloads`).
pub struct TimedStream<'s, 'a> {
    /// The real stream.
    pub inner: &'a mut dyn AccessStream,
    /// Where spans go.
    pub spans: &'s Spans,
}

impl AccessStream for TimedStream<'_, '_> {
    fn next_va(&mut self) -> VirtAddr {
        self.spans.begin_access();
        self.spans.time(Layer::Workloads, || self.inner.next_va())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times `SimMachine::demand_page` (layer `os` or `virt`).
pub struct TimedMachine<'s, M> {
    /// The real machine.
    pub inner: M,
    /// Where spans go.
    pub spans: &'s Spans,
    /// `Os` for a process, `Virt` for a virtual machine.
    pub layer: Layer,
}

impl<M: SimMachine> SimMachine for TimedMachine<'_, M> {
    fn demand_page(&mut self, va: VirtAddr) -> Result<(), OsError> {
        let inner = &mut self.inner;
        self.spans.time(self.layer, || inner.demand_page(va))
    }

    fn reference_translate(&mut self, va: VirtAddr) -> Option<PhysAddr> {
        self.inner.reference_translate(va)
    }
}

/// Times the engine's per-access calls: `translate_access` (layer `tlb`,
/// or the walk layer on a walk), `data_access` and `corunner_access`
/// (layer `cache`). Every other call passes straight through.
pub struct TimedEngine<'s, E> {
    /// The real engine.
    pub inner: E,
    /// Where spans go.
    pub spans: &'s Spans,
    /// `Core` for the paper's MMUs, `Contenders` for Victima/Revelator.
    pub walk_layer: Layer,
}

impl<'s, E: TranslationEngine> TranslationEngine for TimedEngine<'s, E> {
    type Machine = TimedMachine<'s, E::Machine>;

    fn load_context(&mut self, machine: &Self::Machine) {
        self.inner.load_context(&machine.inner);
    }

    fn translate_access(&mut self, machine: &mut Self::Machine, va: VirtAddr) -> EngineOutcome {
        let t0 = self.spans.start();
        let outcome = self.inner.translate_access(&mut machine.inner, va);
        let layer = if outcome.path == TranslationPath::Walk {
            self.walk_layer
        } else {
            Layer::Tlb
        };
        self.spans.record(layer, t0);
        outcome
    }

    fn data_access(&mut self, pa: PhysAddr) -> AccessResult {
        let inner = &mut self.inner;
        self.spans.time(Layer::CacheData, || inner.data_access(pa))
    }

    fn corunner_access(&mut self, line: CacheLineAddr) {
        let inner = &mut self.inner;
        self.spans
            .time(Layer::CacheCorunner, || inner.corunner_access(line));
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn advance(&mut self, cycles: u64) {
        self.inner.advance(cycles);
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn stats_snapshot(&self) -> EngineStats {
        self.inner.stats_snapshot()
    }
}

/// The host cost of one empty span (two clock reads), median of many.
pub fn clock_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..2001)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut v)
}
