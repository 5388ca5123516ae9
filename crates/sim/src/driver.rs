//! The one generic driver loop every scenario runs through — now a
//! cycle-interleaved **multi-core** driver.
//!
//! [`run_cores`] models N in-order cores over one shared memory fabric:
//! at every step the ready core with the *lowest local clock* (ties broken
//! by core index, so arbitration order is fixed and results are
//! seed-reproducible) issues its next application reference. The winner is
//! found through the [`sched::EventQueue`] min-heap — O(log n) per
//! scheduling epoch, so arbitration cost stays near-flat out to 64 cores —
//! while `SimConfig::lockstep` rescans linearly per access as the oracle
//! schedule. Each reference is
//! (1) demand-paged by the OS if new, (2) translated by that core's engine
//! (or resolved for free in perfect-TLB mode), (3) performed as a data
//! access through the shared hierarchy, with fixed non-memory work in
//! between. Each core runs its own [`AccessStream`] and keeps its own
//! warmup/measurement window; statistics reset per core at its warmup
//! boundary. With one core the loop degenerates into exactly the classic
//! single-core driver, which is what pins the engine-parity goldens.
//!
//! The machine assemblies live beside it: `native.rs` builds 1..=64
//! cores of any native backend over one fabric, `virt.rs` builds the
//! one-core virtualized machine, and both hand their cores to
//! [`run_cores_observed`] through one shared `drive` tail, which also
//! installs the single-core SMT co-runner shim ([`CoreSlot::corunner`]).
//! [`run_scenario`] is the one-core entry point for hand-assembled
//! engines.
//!
//! A misconfigured scenario — a workload stream escaping its VMAs, a
//! machine that cannot translate a touched page — surfaces as a typed
//! [`DriverError`] instead of a panic, so one bad run in a `parallel_map`
//! fan-out reports cleanly instead of aborting the whole batch.

use crate::{sched, RunResult, SimConfig, CPU_WORK_CYCLES_PER_ACCESS, INSTRUCTIONS_PER_ACCESS};
use asap_core::{SimMachine, TranslationEngine, TranslationPath};
use asap_os::OsError;
use asap_telemetry::{TraceEvent, TraceEventKind, TraceSink};
use asap_types::VirtAddr;
use asap_workloads::{AccessStream, CoRunner};
use std::time::{Duration, Instant};

/// What went wrong while driving a run — the payload of a [`DriverError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverErrorKind {
    /// The workload stream generated an address outside every VMA of its
    /// machine (a generator/machine mismatch).
    StreamEscapedVma {
        /// The offending address.
        va: VirtAddr,
        /// The OS error demand paging reported.
        source: OsError,
    },
    /// A page the driver just demand-paged failed to translate — the
    /// machine's paging state is inconsistent with its engine.
    UntranslatablePage {
        /// The offending address.
        va: VirtAddr,
    },
    /// The spec's engine/machine/knob combination is not one the simulator
    /// models (e.g. a contender backend on a virtualized machine).
    IncompatibleSpec {
        /// What made the combination invalid.
        reason: &'static str,
    },
}

/// A scenario misconfiguration detected while driving a run. These are
/// *harness* errors (bad workload/machine pairings), not simulated
/// architectural events — a correctly registered scenario never produces
/// one.
///
/// Besides the typed [`kind`](DriverErrorKind), every error carries the
/// **source location that raised it**, captured with `#[track_caller]` at
/// the construction site. The CLI renders it as a `file:line:` diagnostic
/// anchor (`crates/sim/src/driver.rs:371`-shaped) so a failed run in a CI
/// log is clickable straight into the code that rejected it. Equality
/// deliberately ignores the origin — tests compare errors by kind.
#[derive(Debug, Clone, Copy)]
pub struct DriverError {
    /// What went wrong.
    pub kind: DriverErrorKind,
    /// Where the error was raised (file + line in the workspace source).
    pub origin: &'static core::panic::Location<'static>,
}

impl DriverError {
    /// Wraps `kind`, stamping the caller's location as the origin.
    #[must_use]
    #[track_caller]
    pub fn new(kind: DriverErrorKind) -> Self {
        Self {
            kind,
            origin: core::panic::Location::caller(),
        }
    }

    /// A [`DriverErrorKind::StreamEscapedVma`] raised here.
    #[must_use]
    #[track_caller]
    pub fn stream_escaped_vma(va: VirtAddr, source: OsError) -> Self {
        Self::new(DriverErrorKind::StreamEscapedVma { va, source })
    }

    /// An [`DriverErrorKind::UntranslatablePage`] raised here.
    #[must_use]
    #[track_caller]
    pub fn untranslatable_page(va: VirtAddr) -> Self {
        Self::new(DriverErrorKind::UntranslatablePage { va })
    }

    /// An [`DriverErrorKind::IncompatibleSpec`] raised here.
    #[must_use]
    #[track_caller]
    pub fn incompatible_spec(reason: &'static str) -> Self {
        Self::new(DriverErrorKind::IncompatibleSpec { reason })
    }

    /// The `file:line` diagnostic anchor of the raising source line.
    #[must_use]
    pub fn anchor(&self) -> String {
        format!("{}:{}", self.origin.file(), self.origin.line())
    }
}

impl PartialEq for DriverError {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl Eq for DriverError {}

impl core::fmt::Display for DriverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.kind {
            DriverErrorKind::StreamEscapedVma { va, source } => {
                write!(f, "workload stream escaped its VMAs at {va}: {source}")
            }
            DriverErrorKind::UntranslatablePage { va } => {
                write!(f, "demand-paged address {va} failed to translate")
            }
            DriverErrorKind::IncompatibleSpec { reason } => {
                write!(f, "incompatible run spec: {reason}")
            }
        }
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            DriverErrorKind::StreamEscapedVma { source, .. } => Some(source),
            DriverErrorKind::UntranslatablePage { .. }
            | DriverErrorKind::IncompatibleSpec { .. } => None,
        }
    }
}

/// Everything the generic driver needs besides the per-core slots:
/// window sizes, the co-runner switch, the perfect-TLB switch, and the
/// labels stamped onto each [`RunResult`].
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// The workload's name (stamped onto the result). Owned, because
    /// multi-core runs stamp dynamically composed per-core names
    /// ("mc80@core0").
    pub workload: String,
    /// The configuration label (stamped onto the result).
    pub label: String,
    /// Window sizes and seeding.
    pub sim: SimConfig,
    /// Whether the spec is colocated. On a one-core machine this installs
    /// the legacy SMT co-runner shim ([`CoreSlot::corunner`]): the machine
    /// assemblies and [`run_scenario`] read it. [`run_cores`] itself
    /// ignores it — multi-core colocation runs the co-runner as a real
    /// core.
    pub colocated: bool,
    /// Table 6 methodology: translation is free ("no page walks"); the
    /// engine still serves data accesses and the clock still advances.
    pub perfect_tlb: bool,
}

/// One core's slice of a (possibly multi-core) run: its private engine,
/// its software machine, and its reference stream.
pub struct CoreSlot<'a, E: TranslationEngine> {
    /// The core's translation engine (attached to the shared fabric).
    pub engine: &'a mut E,
    /// The software machine backing this core's demand paging.
    pub machine: &'a mut E::Machine,
    /// The core's application reference stream.
    pub stream: &'a mut dyn AccessStream,
    /// The workload name stamped onto this core's result ("mc80",
    /// "mc80@core0", "corunner@core1", ...).
    pub workload: String,
    /// Compat shim: the legacy out-of-band SMT co-runner that injects raw
    /// cache lines per reference instead of executing as a real core. Kept
    /// **only** because the committed engine-parity goldens and the
    /// smoke-tier `BENCH_results.json` pin the single-core `coloc` rows to
    /// this injection model. The machine assemblies' shared `drive` tail
    /// and [`run_scenario`] install it (from [`RunMeta::colocated`]) on a
    /// colocated one-core machine; multi-core runs model the neighbor as
    /// an ordinary workload on its own core and leave this `None`.
    pub corunner: Option<CoRunner>,
}

impl RunMeta {
    /// The legacy SMT co-runner shim a colocated one-core machine carries
    /// (see [`CoreSlot::corunner`]); `None` in isolation.
    pub(crate) fn smt_shim(&self) -> Option<CoRunner> {
        self.colocated
            .then(|| CoRunner::memory_intensive(self.sim.seed ^ 0xC0))
    }
}

/// Observation hooks for one driver invocation: the scheduler's
/// arbitration events (a per-event-core trace track) and the
/// warmup/measure wall-clock split for the simulator self-profile.
///
/// Machine assemblies construct one only when the spec enables telemetry;
/// [`run_cores`] itself passes `None`, so with telemetry off every hook
/// compiles to a never-taken `Option` branch on the hot path.
#[derive(Debug)]
pub struct DriverObserver {
    /// Arbitration events across every core (`record_for` stamps the
    /// popped/pushed core explicitly). `None` when only profiling.
    sched: Option<TraceSink>,
    started: Instant,
    /// When the last core crossed its warmup boundary — the machine-wide
    /// warmup/measure split (per-core boundaries differ under skew; the
    /// last crossing is when the whole machine is measuring).
    warmup_ended: Option<Instant>,
}

impl DriverObserver {
    /// Starts observing now; `trace` additionally records the scheduler's
    /// arbitration events.
    #[must_use]
    pub fn new(trace: bool) -> Self {
        Self {
            sched: trace.then(TraceSink::default),
            // asap-lint: allow(determinism-time) — self-profile wall clock
            started: Instant::now(),
            warmup_ended: None,
        }
    }

    fn sched_event(&mut self, ts: u64, core: usize, kind: TraceEventKind) {
        if let Some(s) = self.sched.as_mut() {
            s.record_for(ts, core as u32, kind);
        }
    }

    fn warmup_boundary(&mut self) {
        // asap-lint: allow(determinism-time) — self-profile wall clock
        self.warmup_ended = Some(Instant::now());
    }

    /// Consumes the observer: the scheduler events plus the (warmup,
    /// measure) wall-clock split.
    #[must_use]
    pub fn finish(self) -> (Vec<TraceEvent>, Duration, Duration) {
        // asap-lint: allow(determinism-time) — self-profile wall clock
        let end = Instant::now();
        let boundary = self.warmup_ended.unwrap_or(self.started);
        let sched = self.sched.map(|s| s.events()).unwrap_or_default();
        (sched, boundary - self.started, end - boundary)
    }
}

/// Per-core window accounting the driver keeps outside the engines.
#[derive(Debug, Clone, Copy, Default)]
struct CoreAccounting {
    accesses_done: u64,
    window_start_cycle: u64,
    walk_cycles: u64,
    prefetches_issued: u64,
    prefetches_dropped: u64,
}

/// Runs one scenario over N cores sharing a memory fabric — warmup
/// window, per-core stats reset, measurement window — and collects one
/// [`RunResult`] per core, in slot order.
///
/// Arbitration is deterministic: at each step the unfinished core with the
/// lowest local clock issues its next reference; ties resolve to the
/// lowest core index. The batched path schedules from an
/// [`sched::EventQueue`] (O(log n) per epoch); `meta.sim.lockstep` instead
/// rescans every core per access with [`sched::linear_scan`] — an
/// independent implementation of the same order that serves as the oracle
/// schedule. Every engine must already be constructed (over one shared
/// fabric for N > 1) and context-loaded.
///
/// # Errors
///
/// Returns a [`DriverError`] when any core's workload generates an address
/// outside its VMAs, a touched page fails to translate, or the slot list
/// is empty (a machine needs at least one core).
pub fn run_cores<E: TranslationEngine>(
    cores: &mut [CoreSlot<'_, E>],
    meta: &RunMeta,
) -> Result<Vec<RunResult>, DriverError> {
    run_cores_observed(cores, meta, None)
}

/// [`run_cores`] with observation hooks: `Some` records scheduler events
/// and the warmup/measure wall split into the observer; `None` is the
/// plain driver with every hook branch never taken.
///
/// # Errors
///
/// Same contract as [`run_cores`].
pub fn run_cores_observed<E: TranslationEngine>(
    cores: &mut [CoreSlot<'_, E>],
    meta: &RunMeta,
    obs: Option<&mut DriverObserver>,
) -> Result<Vec<RunResult>, DriverError> {
    if cores.is_empty() {
        return Err(DriverError::incompatible_spec(
            "a machine needs at least one core",
        ));
    }
    let total = meta.sim.warmup_accesses + meta.sim.measure_accesses;
    let mut accounting = vec![CoreAccounting::default(); cores.len()];
    if meta.sim.lockstep {
        run_lockstep(cores, &mut accounting, total, meta, obs)?;
    } else {
        run_event_queue(cores, &mut accounting, total, meta, obs)?;
    }

    Ok(cores
        .iter()
        .zip(&accounting)
        .map(|(core, acct)| {
            let stats = core.engine.stats_snapshot();
            RunResult {
                workload: core.workload.clone(),
                label: meta.label.clone(),
                walks: stats.walks,
                served: stats.served,
                host_served: stats.host_served,
                l2_tlb_misses: stats.l2_tlb.misses,
                l2_tlb_accesses: stats.l2_tlb.accesses(),
                instructions: meta.sim.measure_accesses * INSTRUCTIONS_PER_ACCESS,
                cycles: core.engine.now() - acct.window_start_cycle,
                walk_cycles: acct.walk_cycles,
                prefetches_issued: acct.prefetches_issued,
                prefetches_dropped: acct.prefetches_dropped,
                faults: stats.walk_faults,
            }
        })
        .collect())
}

/// The batched scheduler: a binary min-heap keyed by `(local_clock,
/// core_idx)`. The winner pops, bursts until its key passes the new heap
/// top (the runner-up at pop time), and re-pushes — O(log n) arbitration
/// per epoch instead of the old O(n) rescan. Because only the popped
/// core's clock moves while it runs, every resident key always equals its
/// core's current `(now, idx)` and the pop order replays the per-access
/// linear-scan schedule exactly (the `prop_smp_determinism` oracle); with
/// one core the bound is `None` and the loop degenerates into the classic
/// run-to-completion single-core driver.
// asap-lint: hot-path
fn run_event_queue<E: TranslationEngine>(
    cores: &mut [CoreSlot<'_, E>],
    accounting: &mut [CoreAccounting],
    total: u64,
    meta: &RunMeta,
    mut obs: Option<&mut DriverObserver>,
) -> Result<(), DriverError> {
    let mut queue = sched::EventQueue::with_capacity(cores.len());
    if total > 0 {
        for (i, core) in cores.iter().enumerate() {
            queue.push((core.engine.now(), i));
        }
    }
    while let Some((ts, i)) = queue.pop() {
        if let Some(o) = obs.as_deref_mut() {
            o.sched_event(ts, i, TraceEventKind::ArbPop);
        }
        let bound = queue.peek();
        loop {
            step_core(&mut cores[i], &mut accounting[i], meta, obs.as_deref_mut())?;
            if accounting[i].accesses_done == total {
                break;
            }
            let key = (cores[i].engine.now(), i);
            if bound.is_some_and(|b| key >= b) {
                queue.push(key);
                if let Some(o) = obs.as_deref_mut() {
                    o.sched_event(key.0, i, TraceEventKind::ArbPush);
                }
                break;
            }
        }
    }
    Ok(())
}

/// The per-access oracle schedule: rescan every unfinished core with the
/// PR-6 [`sched::linear_scan`] after each access. Statistically identical
/// to [`run_event_queue`] (pinned by `prop_smp_determinism`); kept as a
/// genuinely independent implementation of the arbitration order, not a
/// special case of the heap path.
fn run_lockstep<E: TranslationEngine>(
    cores: &mut [CoreSlot<'_, E>],
    accounting: &mut [CoreAccounting],
    total: u64,
    meta: &RunMeta,
    mut obs: Option<&mut DriverObserver>,
) -> Result<(), DriverError> {
    loop {
        let ready = cores
            .iter()
            .enumerate()
            .filter(|(i, _)| accounting[*i].accesses_done < total)
            .map(|(i, core)| (core.engine.now(), i));
        let (best, _) = sched::linear_scan(ready);
        let Some((ts, i)) = best else { break };
        if let Some(o) = obs.as_deref_mut() {
            o.sched_event(ts, i, TraceEventKind::ArbPop);
        }
        step_core(&mut cores[i], &mut accounting[i], meta, obs.as_deref_mut())?;
    }
    Ok(())
}

/// One core's next application reference: warmup-boundary stats reset,
/// demand paging, translation, the data access, and the co-runner burst.
// asap-lint: hot-path
fn step_core<E: TranslationEngine>(
    core: &mut CoreSlot<'_, E>,
    acct: &mut CoreAccounting,
    meta: &RunMeta,
    obs: Option<&mut DriverObserver>,
) -> Result<(), DriverError> {
    if acct.accesses_done == meta.sim.warmup_accesses {
        if let Some(o) = obs {
            o.warmup_boundary();
        }
        core.engine.reset_stats();
        *acct = CoreAccounting {
            accesses_done: acct.accesses_done,
            window_start_cycle: core.engine.now(),
            ..CoreAccounting::default()
        };
    }
    let va = core.stream.next_va();
    // OS demand paging happens off the measured path (a faulting access
    // costs microseconds of OS work either way; the paper's walk-latency
    // metric covers successful walks).
    core.machine
        .demand_page(va)
        .map_err(|source| DriverError::stream_escaped_vma(va, source))?;
    let pa = if meta.perfect_tlb {
        core.machine
            .reference_translate(va)
            .ok_or(DriverError::untranslatable_page(va))?
    } else {
        let outcome = core.engine.translate_access(core.machine, va);
        if outcome.path == TranslationPath::Walk {
            acct.walk_cycles += outcome.latency;
            acct.prefetches_issued += u64::from(outcome.prefetches_issued);
            acct.prefetches_dropped += u64::from(outcome.prefetches_dropped);
        }
        outcome.phys.ok_or(DriverError::untranslatable_page(va))?
    };
    let _ = core.engine.data_access(pa);
    core.engine.advance(CPU_WORK_CYCLES_PER_ACCESS);
    if let Some(co) = core.corunner.as_mut() {
        // Drawn one line at a time — the burst is per-access hot path, so
        // no `Vec` is collected; the RNG draw order matches the old
        // collected form exactly.
        for _ in 0..co.burst() {
            core.engine.corunner_access(co.next_line());
        }
    }
    acct.accesses_done += 1;
    Ok(())
}

/// Runs one **single-core** scenario over any translation engine — a
/// one-core special case of [`run_cores`] for callers that assemble an
/// engine by hand (the criterion benches, external harnesses).
///
/// When `meta.colocated` is set, the core carries the legacy SMT
/// co-runner shim (see [`CoreSlot::corunner`]), exactly as the native and
/// virtualized assemblies install it on a colocated one-core machine.
///
/// # Errors
///
/// Returns a [`DriverError`] when the workload generates an address outside
/// its VMAs or a touched page fails to translate — misconfigurations
/// reported to the caller rather than panicking mid-fan-out.
pub fn run_scenario<E: TranslationEngine>(
    engine: &mut E,
    machine: &mut E::Machine,
    stream: &mut dyn AccessStream,
    meta: &RunMeta,
) -> Result<RunResult, DriverError> {
    let mut slots = [CoreSlot {
        engine,
        machine,
        stream,
        workload: meta.workload.clone(),
        corunner: meta.smt_shim(),
    }];
    run_cores(&mut slots, meta)?
        .pop()
        .ok_or(DriverError::incompatible_spec(
            "a one-core machine yields one result",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::smoke_workload as small;
    use asap_core::{Mmu, MmuConfig, NestedMmu, NestedMmuConfig};
    use asap_os::AsapOsConfig;
    use asap_types::Asid;
    use asap_virt::VirtualMachine;

    fn meta(sim: SimConfig) -> RunMeta {
        RunMeta {
            workload: "test".into(),
            label: "direct".into(),
            sim,
            colocated: false,
            perfect_tlb: false,
        }
    }

    #[test]
    fn drives_a_native_engine_directly() {
        let w = small();
        let sim = SimConfig::smoke_test();
        let mut process = w.build_process(Asid(1), AsapOsConfig::disabled(), sim.seed);
        let mut stream = w.build_stream(&process, sim.seed ^ 0x11);
        let mut mmu = Mmu::new(MmuConfig::default().with_seed(sim.seed));
        TranslationEngine::load_context(&mut mmu, &process);
        let r = run_scenario(&mut mmu, &mut process, stream.as_mut(), &meta(sim)).unwrap();
        assert!(r.walks.count() > 100);
        assert_eq!(r.faults, 0);
        assert!(r.host_served.is_none());
    }

    #[test]
    fn drives_a_nested_engine_directly() {
        let w = small();
        let sim = SimConfig::smoke_test();
        let guest = w
            .process_config(Asid(1), AsapOsConfig::disabled(), sim.seed)
            .with_compact_phys();
        let ept = asap_virt::EptConfig {
            scatter_run: w.pt_scatter_run,
            seed: sim.seed ^ 0xE9,
            ..asap_virt::EptConfig::default()
        };
        let mut vm = VirtualMachine::new(guest, ept);
        let mut stream = w.build_stream(vm.guest(), sim.seed ^ 0x11);
        let mut mmu = NestedMmu::new(NestedMmuConfig::default().with_seed(sim.seed));
        TranslationEngine::load_context(&mut mmu, &vm);
        let r = run_scenario(&mut mmu, &mut vm, stream.as_mut(), &meta(sim)).unwrap();
        assert!(r.walks.count() > 100);
        assert!(r.host_served.is_some());
    }

    #[test]
    fn perfect_tlb_never_queries_the_engine() {
        let w = small();
        let sim = SimConfig::smoke_test();
        let mut process = w.build_process(Asid(1), AsapOsConfig::disabled(), sim.seed);
        let mut stream = w.build_stream(&process, sim.seed ^ 0x11);
        let mut mmu = Mmu::new(MmuConfig::default().with_seed(sim.seed));
        let mut m = meta(sim);
        m.perfect_tlb = true;
        let r = run_scenario(&mut mmu, &mut process, stream.as_mut(), &m).unwrap();
        assert_eq!(r.walks.count(), 0);
        assert_eq!(r.walk_cycles, 0);
        assert_eq!(r.l2_tlb_accesses, 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn escaping_stream_reports_instead_of_panicking() {
        /// A stream that wanders outside every VMA.
        struct WildStream;
        impl AccessStream for WildStream {
            fn next_va(&mut self) -> VirtAddr {
                VirtAddr::new(0x1234_5678_0000).unwrap()
            }
            fn name(&self) -> &'static str {
                "wild"
            }
        }
        let sim = SimConfig::smoke_test();
        let mut process = small().build_process(Asid(1), AsapOsConfig::disabled(), sim.seed);
        let mut mmu = Mmu::new(MmuConfig::default().with_seed(sim.seed));
        let err = run_scenario(&mut mmu, &mut process, &mut WildStream, &meta(sim)).unwrap_err();
        match err.kind {
            DriverErrorKind::StreamEscapedVma { va, source } => {
                assert_eq!(va, VirtAddr::new(0x1234_5678_0000).unwrap());
                assert_eq!(source, OsError::Segfault(va));
            }
            other => panic!("expected StreamEscapedVma, got {other:?}"),
        }
        assert!(err.to_string().contains("escaped"));
    }

    /// No cores is a typed spec error now, not a panic — a `parallel_map`
    /// fan-out reports it like any other misconfiguration.
    #[test]
    fn zero_cores_is_a_spec_error_not_a_panic() {
        let mut slots: [CoreSlot<'_, Mmu>; 0] = [];
        let err = run_cores(&mut slots, &meta(SimConfig::smoke_test())).unwrap_err();
        assert_eq!(
            err,
            DriverError::incompatible_spec("a machine needs at least one core")
        );
        // The anchor points into this crate's driver source — the
        // clickable `file:line:` the CLI prefixes diagnostics with.
        assert!(
            err.anchor().contains("driver.rs:"),
            "unexpected anchor {}",
            err.anchor()
        );
    }

    /// Two cores over one fabric: the multi-core loop yields one result
    /// per core, and each core's measurement window is populated.
    #[test]
    fn drives_two_cores_over_one_fabric() {
        use asap_cache::SharedFabric;
        let w = small();
        let sim = SimConfig::smoke_test();
        let fabric = SharedFabric::new(asap_cache::HierarchyConfig::broadwell_like());
        let mut processes: Vec<_> = (0..2u16)
            .map(|i| {
                w.build_process(
                    Asid(1 + i),
                    AsapOsConfig::disabled(),
                    sim.seed ^ u64::from(i),
                )
            })
            .collect();
        let mut streams: Vec<_> = processes
            .iter()
            .enumerate()
            .map(|(i, p)| w.build_stream(p, sim.seed ^ 0x11 ^ ((i as u64) << 8)))
            .collect();
        let mut engines: Vec<Mmu> = (0..2)
            .map(|i| Mmu::with_fabric(MmuConfig::default().with_seed(i), fabric.clone()))
            .collect();
        for (e, p) in engines.iter_mut().zip(&processes) {
            TranslationEngine::load_context(e, p);
        }
        let mut slots: Vec<CoreSlot<'_, Mmu>> = engines
            .iter_mut()
            .zip(processes.iter_mut())
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(i, ((engine, machine), stream))| CoreSlot {
                engine,
                machine,
                stream: stream.as_mut(),
                workload: format!("test@core{i}"),
                corunner: None,
            })
            .collect();
        let results = run_cores(&mut slots, &meta(sim)).unwrap();
        assert_eq!(results.len(), 2);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.workload, format!("test@core{i}"));
            assert!(r.walks.count() > 100, "core {i} never walked");
            assert_eq!(r.faults, 0);
            assert!(r.cycles > 0);
        }
    }

    /// Shared-fabric contention is visible: the same workload's walk
    /// latency is higher with a thrashing neighbor core than alone.
    #[test]
    fn neighbor_core_inflates_walk_latency() {
        use asap_cache::SharedFabric;
        let w = small();
        let sim = SimConfig::smoke_test();

        let run_with_neighbors = |n: usize| {
            let fabric = SharedFabric::new(asap_cache::HierarchyConfig::broadwell_like());
            let mut processes: Vec<_> = (0..n as u16)
                .map(|i| {
                    w.build_process(
                        Asid(1 + i),
                        AsapOsConfig::disabled(),
                        sim.seed ^ (u64::from(i) * 0x9E37),
                    )
                })
                .collect();
            let mut streams: Vec<_> = processes
                .iter()
                .enumerate()
                .map(|(i, p)| w.build_stream(p, sim.seed ^ 0x11 ^ (i as u64 * 0x51)))
                .collect();
            let mut engines: Vec<Mmu> = (0..n as u64)
                .map(|i| Mmu::with_fabric(MmuConfig::default().with_seed(i), fabric.clone()))
                .collect();
            for (e, p) in engines.iter_mut().zip(&processes) {
                TranslationEngine::load_context(e, p);
            }
            let mut slots: Vec<CoreSlot<'_, Mmu>> = engines
                .iter_mut()
                .zip(processes.iter_mut())
                .zip(streams.iter_mut())
                .map(|((engine, machine), stream)| CoreSlot {
                    engine,
                    machine,
                    stream: stream.as_mut(),
                    workload: "test".into(),
                    corunner: None,
                })
                .collect();
            run_cores(&mut slots, &meta(sim)).unwrap()[0].walks.mean()
        };

        let alone = run_with_neighbors(1);
        let contended = run_with_neighbors(4);
        assert!(
            contended > alone,
            "4-core walk latency {contended:.1} !> single-core {alone:.1}"
        );
    }
}
