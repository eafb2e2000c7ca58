//! The `mck_packed` and `mck_hashed` workloads: full-fix R2 cells
//! checked at `Params(2, 6)` on one of two stacks.
//!
//! * `packed`: symmetry quotient over the ample-set-reduced model,
//!   explored on the bit-packed store — canonicalizer-, oracle- and
//!   codec-heavy;
//! * `hashed`: the unreduced model on the hashed BFS `Checker` —
//!   store-heavy.
//!
//! Each stack is composed the way `hb_verify::tables::scale_cell`
//! composes it, but model, certificate, oracle and codec are built
//! before the timed region, so their cost lands in `setup_s`.
//!
//! The timed region repeats passes over a fixed set of units for the
//! run's seconds; the rate is that of a pass made of each unit's fastest
//! run, as the campaign's is that of its fastest pass. A unit is a cell
//! explored to its verdict or, for a cell too large to repeat within a
//! run (dynamic n=4 packed, ~2.1M states; expanding n=4 hashed, ~1.2M
//! states and ~1.5 GB), the first `cap` states of its breadth-first
//! exploration, which is the same work in every pass. Every unit of every pass is
//! checked against `scale_cell` at the same state cap. Traced runs also
//! check every cell of the stack once to its verdict.
//!
//! The traced run swaps in timed decorators for `mck::Model`,
//! `AmpleOracle`, `StateCodec` and the canonicalizer closure.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use hb_core::{FixLevel, Params, Variant};
use hb_verify::requirements::{build_model, error_predicate};
use hb_verify::{
    certified_canonical, scale_cell, scale_disagreements, HbAction, HbAmpleOracle, HbCodec,
    HbModel, HbState, Reduction, Requirement, ScaleCell, ScaleLimits, ScaleOutcome,
};
use mck::bfs::Stats;
use mck::packed::{BitReader, BitWriter, PackedChecker, StateCodec};
use mck::symmetry::Symmetric;
use mck::{AmpleOracle, CheckOutcome, Checker, Model, Reduced};

use crate::stats::{median, peak_rss_mb, setup_figure, time_setup, HostSpeed, Outcome};
use crate::trace::{self, span, Calib, Count, Id};

/// Which checker stack a process runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    /// sym+por+packed.
    Packed,
    /// Unreduced, hashed store.
    Hashed,
}

impl Stack {
    fn reduction(self) -> Reduction {
        match self {
            Stack::Packed => Reduction::SymPorPacked,
            Stack::Hashed => Reduction::Full,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Stack::Packed => "packed",
            Stack::Hashed => "hashed",
        }
    }
}

/// One unit of a pass: a cell, explored to its verdict when `cap` is
/// `None`, or to its first `cap` states.
#[derive(Clone, Copy, Debug)]
struct Unit {
    variant: Variant,
    n: usize,
    cap: Option<usize>,
}

/// The units of one stack's pass, all R2 at the full fix. A pass takes
/// about a second on a 2-vCPU host.
fn units(stack: Stack) -> Vec<Unit> {
    let unit = |variant, n, cap| Unit { variant, n, cap };
    match stack {
        Stack::Packed => vec![
            unit(Variant::Static, 8, None),
            unit(Variant::Expanding, 4, None),
            unit(Variant::Dynamic, 4, Some(100_000)),
        ],
        Stack::Hashed => vec![unit(Variant::Expanding, 4, Some(150_000))],
    }
}

const REQ: Requirement = Requirement::R2;

fn params() -> Params {
    Params::new(2, 6).expect("valid params")
}

fn limits(cap: Option<usize>) -> ScaleLimits {
    ScaleLimits {
        max_states: cap.unwrap_or(8_000_000),
        time_budget: Duration::from_secs(150),
    }
}

/// Everything built before the timed region for one cell.
struct Prepared {
    unit: Unit,
    model: HbModel,
    packed: Option<Reductions>,
}

/// What the packed stack adds to the model: the certified
/// canonicalizer, the ample-set oracle and the codec.
struct Reductions {
    canon: fn(&HbState) -> HbState,
    oracle: HbAmpleOracle,
    codec: HbCodec,
}

fn prepare(stack: Stack, unit: Unit) -> Result<Prepared, String> {
    let model =
        build_model(unit.variant, params(), FixLevel::Full, unit.n, REQ).stagger_starts(true);
    let packed = match stack {
        Stack::Hashed => None,
        Stack::Packed => {
            let canon = certified_canonical(&model).map_err(|e| e.to_string())?;
            let oracle = HbAmpleOracle::new(&model, REQ);
            let codec = HbCodec::for_model(&model);
            Some(Reductions {
                canon,
                oracle,
                codec,
            })
        }
    };
    Ok(Prepared {
        unit,
        model,
        packed,
    })
}

/// What one checked cell produced.
struct Checked {
    outcome: ScaleOutcome,
    stats: Stats,
    packed_bytes: Option<usize>,
    secs: f64,
    /// Seconds of each window of `WINDOW` fresh states.
    windows: Vec<f64>,
}

/// Fresh states per timed window of an exploration: ~10 ms of checking.
const WINDOW: usize = 2_048;

/// Marks the time every `WINDOW` fresh states of one exploration, from
/// the checker's invariant callback. The exploration order is fixed, so
/// a unit's windows hold the same states in every pass.
struct Clock {
    start: Instant,
    fresh: Cell<usize>,
    marks: RefCell<Vec<f64>>,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            start: Instant::now(),
            fresh: Cell::new(0),
            marks: RefCell::new(Vec::new()),
        }
    }

    fn tick(&self) {
        let n = self.fresh.get() + 1;
        self.fresh.set(n);
        if n % WINDOW == 0 {
            self.marks
                .borrow_mut()
                .push(self.start.elapsed().as_secs_f64());
        }
    }

    /// The exploration's time and its windows' durations, the last
    /// window running up to now.
    fn stop(self) -> (f64, Vec<f64>) {
        let end = self.start.elapsed().as_secs_f64();
        let mut marks = self.marks.into_inner();
        marks.push(end);
        let mut prev = 0.0;
        let windows = marks
            .into_iter()
            .map(|m| {
                let d = m - prev;
                prev = m;
                d
            })
            .collect();
        (end, windows)
    }
}

fn outcome<M: Model>(o: &CheckOutcome<M>) -> (ScaleOutcome, Stats) {
    match o {
        CheckOutcome::Holds(st) => (ScaleOutcome::Holds, *st),
        CheckOutcome::Violated { path, stats } => {
            (ScaleOutcome::Violated { depth: path.len() }, *stats)
        }
        CheckOutcome::Incomplete(st) => (ScaleOutcome::Exhausted, *st),
    }
}

fn check_plain(p: &Prepared, l: ScaleLimits) -> Checked {
    let clock = Clock::start();
    let pred = |s: &HbState| {
        clock.tick();
        !error_predicate(&p.model, REQ)(s)
    };
    let (outcome, stats, packed_bytes) = match &p.packed {
        None => {
            let out = Checker::new(&p.model)
                .max_states(l.max_states)
                .time_budget(l.time_budget)
                .check_invariant(pred);
            let (o, s) = outcome(&out);
            (o, s, None)
        }
        Some(r) => {
            let red = Reduced::new(&p.model, ByRef(&r.oracle));
            let sym = Symmetric::new(&red, r.canon);
            let run = PackedChecker::new(&sym, r.codec.clone())
                .max_states(l.max_states)
                .time_budget(l.time_budget)
                .check_invariant(pred);
            let (o, s) = outcome(&run.outcome);
            (o, s, Some(run.mem.total()))
        }
    };
    let (secs, windows) = clock.stop();
    Checked {
        outcome,
        stats,
        packed_bytes,
        secs,
        windows,
    }
}

/// `HbAmpleOracle` by reference, so one oracle built in set-up serves
/// the timed region.
struct ByRef<'a>(&'a HbAmpleOracle);

impl AmpleOracle<HbModel> for ByRef<'_> {
    fn ample(&self, state: &HbState, enabled: &[HbAction]) -> Option<Vec<usize>> {
        self.0.ample(state, enabled)
    }
}

/// Timed decorator over `HbModel`.
struct TModel<'a>(&'a HbModel);

impl Model for TModel<'_> {
    type State = HbState;
    type Action = HbAction;

    fn initial_states(&self) -> Vec<HbState> {
        self.0.initial_states()
    }

    fn actions(&self, state: &HbState, out: &mut Vec<HbAction>) {
        let _s = span(Id::ModelActions);
        self.0.actions(state, out);
    }

    fn next_state(&self, state: &HbState, action: &HbAction) -> Option<HbState> {
        let _s = span(Id::ModelNext);
        self.0.next_state(state, action)
    }

    fn format_action(&self, action: &HbAction) -> String {
        self.0.format_action(action)
    }

    fn format_state(&self, state: &HbState) -> String {
        self.0.format_state(state)
    }
}

/// Timed decorator over `HbAmpleOracle`.
struct TOracle<'a>(&'a HbAmpleOracle);

impl<'a> AmpleOracle<TModel<'a>> for TOracle<'_> {
    fn ample(&self, state: &HbState, enabled: &[HbAction]) -> Option<Vec<usize>> {
        let r = {
            let _s = span(Id::Ample);
            AmpleOracle::<HbModel>::ample(self.0, state, enabled)
        };
        trace::count(Count::AmpleEnabled, enabled.len() as u64);
        trace::count(
            Count::AmpleKept,
            r.as_ref().map_or(enabled.len(), Vec::len) as u64,
        );
        r
    }
}

/// Timed decorator over `HbCodec`.
struct TCodec(HbCodec);

impl StateCodec<HbState> for TCodec {
    fn encode(&self, state: &HbState, w: &mut BitWriter) {
        let _s = span(Id::Encode);
        self.0.encode(state, w);
    }

    fn decode(&self, r: &mut BitReader) -> HbState {
        let _s = span(Id::Decode);
        self.0.decode(r)
    }
}

fn check_traced(p: &Prepared, l: ScaleLimits) -> Checked {
    let model = TModel(&p.model);
    let clock = Clock::start();
    let pred = |s: &HbState| {
        clock.tick();
        !error_predicate(&p.model, REQ)(s)
    };
    let cell = span(Id::Cell);
    let (outcome, stats, packed_bytes) = match &p.packed {
        None => {
            let out = Checker::new(&model)
                .max_states(l.max_states)
                .time_budget(l.time_budget)
                .check_invariant(pred);
            let (o, s) = outcome(&out);
            (o, s, None)
        }
        Some(r) => {
            let canon = r.canon;
            let red = Reduced::new(&model, TOracle(&r.oracle));
            let sym = Symmetric::new(&red, move |s: &HbState| {
                let _s = span(Id::Canon);
                canon(s)
            });
            let run = PackedChecker::new(&sym, TCodec(r.codec.clone()))
                .max_states(l.max_states)
                .time_budget(l.time_budget)
                .check_invariant(pred);
            let (o, s) = outcome(&run.outcome);
            (o, s, Some(run.mem.total()))
        }
    };
    drop(cell);
    let (secs, windows) = clock.stop();
    Checked {
        outcome,
        stats,
        packed_bytes,
        secs,
        windows,
    }
}

fn bench_cell(p: &Prepared, stack: Stack, c: &Checked) -> ScaleCell {
    ScaleCell {
        variant: p.unit.variant,
        requirement: REQ,
        n: p.unit.n,
        reduction: stack.reduction(),
        outcome: c.outcome.clone(),
        states: c.stats.states,
        transitions: c.stats.transitions,
        peak_bytes: c.packed_bytes,
        millis: (c.secs * 1e3) as u128,
    }
}

/// What a unit's result is judged on.
fn key(c: &ScaleCell) -> (&'static str, usize, usize) {
    (c.outcome.symbol(), c.states, c.transitions)
}

fn unit_name(u: &Unit, stack: Stack) -> String {
    let cap = u.cap.map_or(String::new(), |c| format!("/first {c} states"));
    format!("{}/R2/n={}/{}{cap}", u.variant.name(), u.n, stack.name())
}

/// Why a unit's result breaks a failure rule: a violation, an exhausted
/// budget on a cell explored to its verdict, or a result other than
/// `scale_cell`'s at the same cap.
fn unit_failure(u: &Unit, mine: &ScaleCell, lib: &ScaleCell) -> Option<String> {
    let expected = if u.cap.is_some() {
        ScaleOutcome::Exhausted
    } else {
        ScaleOutcome::Holds
    };
    if mine.outcome != expected {
        return Some(format!("verdict {}", mine.outcome.symbol()));
    }
    (key(mine) != key(lib)).then(|| {
        let (o, s, t) = key(mine);
        let (lo, ls, lt) = key(lib);
        format!("bench {o} {s}/{t} vs scale_cell {lo} {ls}/{lt}")
    })
}

fn lib_cell(u: &Unit, stack: Stack, l: ScaleLimits) -> ScaleCell {
    scale_cell(u.variant, params(), FixLevel::Full, REQ, u.n, stack.reduction(), l)
}

/// Passes over the units of one stack, for `secs` of measurement.
#[derive(Default)]
struct Passes {
    /// Each pass's units, with the seconds of each unit's windows.
    cells: Vec<Vec<(ScaleCell, Vec<f64>)>>,
    states: usize,
    packed_bytes: usize,
}

impl Passes {
    /// States per second of a pass made of each window's fastest run
    /// (see `best_rate`). A window is ~10 ms, as short as a campaign
    /// pass, and runs once per pass, ~15 times a run: short enough that
    /// some of its runs find the host uncontended even in a run that
    /// spends all its passes in a slow spell.
    fn rate(&self) -> f64 {
        let first = &self.cells[0];
        let states: usize = first.iter().map(|(c, _)| c.states).sum();
        let mut best = 0.0;
        for (u, (_, windows)) in first.iter().enumerate() {
            for w in 0..windows.len() {
                best += self
                    .cells
                    .iter()
                    .filter_map(|p| p[u].1.get(w))
                    .fold(f64::INFINITY, |a, &b| a.min(b));
            }
        }
        states as f64 / best
    }

    /// Seconds of each pass.
    fn secs(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|p| p.iter().flat_map(|(_, w)| w).sum())
            .collect()
    }
}

/// Run one stack for `secs` of measurement.
pub fn run(stack: Stack, secs: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // A checker has no random input: the units are the same for every
    // seed.
    let list = units(stack);

    let build = || {
        list.iter()
            .map(|&u| prepare(stack, u))
            .collect::<Result<Vec<_>, _>>()
    };
    let mut setup = Vec::new();
    let prepared = match time_setup(&mut setup, build) {
        Ok(p) => p,
        Err(e) => {
            out.error(format!("{}: certificate refused: {e}", stack.name()));
            return out;
        }
    };

    // Set-up is sampled again after every pass, outside the pass's
    // timing, so that its figure sees the same spells as the rate.
    let mut passes = Passes::default();
    let mut host = HostSpeed::new();
    let start = Instant::now();
    while passes.cells.len() < 5 || start.elapsed().as_secs_f64() < secs {
        let mut cells = Vec::new();
        for p in &prepared {
            let l = limits(p.unit.cap);
            let c = if traced {
                check_traced(p, l)
            } else {
                check_plain(p, l)
            };
            passes.states += c.stats.states;
            passes.packed_bytes += c.packed_bytes.unwrap_or(0);
            let cell = bench_cell(p, stack, &c);
            cells.push((cell, c.windows));
        }
        passes.cells.push(cells);
        host.sample();
        drop(time_setup(&mut setup, build));
    }
    let peak = peak_rss_mb().unwrap_or(0.0);
    let pass_secs = passes.secs();
    let Some(factor) = host.factor() else {
        out.error("the host-speed reference did not run".into());
        return out;
    };
    out.metric("setup_s", setup_figure(&setup) / factor, "s");
    out.metric("rate_per_s", passes.rate() * factor, "1/s");
    out.metric("peak_mb", peak, "MB");
    out.metric("host_factor", factor, "x");
    out.metric(
        &format!("verify_{}_pass_s", stack.name()),
        median(&pass_secs),
        "s",
    );
    // Closure inputs: the work done and the time it took.
    out.metric("raw.work", passes.states as f64, "count");
    out.metric("raw.time_ns", pass_secs.iter().sum::<f64>() * 1e9, "ns");

    // Every unit of every pass is one operation, judged against the
    // library's own composition of it, `scale_cell`, at the same cap.
    let mut compared = Vec::new();
    for (i, (p, (first, _))) in prepared.iter().zip(&passes.cells[0]).enumerate() {
        let lib = lib_cell(&p.unit, stack, limits(p.unit.cap));
        let name = unit_name(&p.unit, stack);
        out.notes.push(format!(
            "mck_verify: {name}: {} in {:.3} s (first pass), {} states, {} transitions",
            first.outcome.symbol(),
            first.millis as f64 / 1e3,
            first.states,
            first.transitions
        ));
        for cells in &passes.cells {
            out.attempted += 1;
            if let Some(why) = unit_failure(&p.unit, &cells[i].0, &lib) {
                out.failed += 1;
                if out.notes.len() < 20 {
                    out.notes.push(format!("failed: {name}: {why}"));
                }
            }
        }
        compared.push(first.clone());
        compared.push(lib);
    }
    let per_pass = passes.states as f64 / passes.cells.len() as f64;
    let rates: Vec<String> = pass_secs
        .iter()
        .map(|t| format!("{:.0}", per_pass / t / 1e3))
        .collect();
    out.notes.push(format!(
        "mck_verify: {} passes over {} units, k states/s: {}",
        passes.cells.len(),
        prepared.len(),
        rates.join(" ")
    ));

    if traced {
        per_layer(stack, passes.states, passes.packed_bytes, &mut out);
        full_cells(stack, &prepared, &mut compared, &mut out);
    }
    for d in scale_disagreements(&compared) {
        out.error(format!("mck_verify: stacks disagree: {d}"));
    }
    out
}

/// Every cell of the stack checked once, untraced, to its verdict, and
/// against `scale_cell`: the cells a pass explores only in part are
/// otherwise never finished. Gives `verify_<stack>_s`, the wall time to
/// verdict summed over the cells, and the peak resident set it reaches.
fn full_cells(stack: Stack, prepared: &[Prepared], compared: &mut Vec<ScaleCell>, out: &mut Outcome) {
    let mut secs = 0.0;
    for p in prepared {
        let full = Unit { cap: None, ..p.unit };
        let c = check_plain(p, limits(None));
        secs += c.secs;
        let mine = bench_cell(p, stack, &c);
        let lib = lib_cell(&full, stack, limits(None));
        let name = unit_name(&full, stack);
        out.notes.push(format!(
            "mck_verify: {name}: {} in {:.3} s, {} states, {} transitions",
            mine.outcome.symbol(),
            c.secs,
            mine.states,
            mine.transitions
        ));
        out.attempted += 1;
        if let Some(why) = unit_failure(&full, &mine, &lib) {
            out.failed += 1;
            out.notes.push(format!("failed: {name}: {why}"));
        }
        compared.push(mine);
        compared.push(lib);
    }
    out.metric(&format!("verify_{}_s", stack.name()), secs, "s");
    out.metric(
        &format!("verify_{}_peak_mb", stack.name()),
        peak_rss_mb().unwrap_or(0.0),
        "MB",
    );
}

fn per_layer(stack: Stack, states: usize, packed_bytes: usize, out: &mut Outcome) {
    let cal = Calib::measure();
    out.notes.push(cal.note());
    let cell = trace::agg(Id::Cell);
    let acts = trace::agg(Id::ModelActions);
    let next = trace::agg(Id::ModelNext);
    let canon = trace::agg(Id::Canon);
    let ample = trace::agg(Id::Ample);
    let enc = trace::agg(Id::Encode);
    let dec = trace::agg(Id::Decode);
    let children: u64 = [acts, next, canon, ample, enc, dec]
        .iter()
        .map(|a| a.count)
        .sum();
    // Successor generation per expanded state: one `actions` call and
    // the `next_state` calls on its actions.
    let successors = cal.own(acts, 0) + cal.own(next, 0);
    out.metric(
        "hb_verify.model.successors_ns",
        (successors / acts.count.max(1) as f64).max(0.0),
        "ns",
    );
    // The store's own time: the cell minus every decorated call.
    let store = cal.own(cell, children);
    let store_per_state = (store / states.max(1) as f64).max(0.0);
    let secs = cal.covered(cell, children) / 1e9;
    match stack {
        Stack::Packed => {
            out.metric("hb_verify.symmetry.canon_ns", cal.price(canon), "ns");
            out.metric("hb_verify.por.ample_ns", cal.price(ample), "ns");
            out.metric(
                "hb_verify.por.ample_ratio",
                trace::counted(Count::AmpleKept) as f64
                    / trace::counted(Count::AmpleEnabled).max(1) as f64,
                "ratio",
            );
            out.metric("hb_verify.packed.encode_ns", cal.price(enc), "ns");
            out.metric("hb_verify.packed.decode_ns", cal.price(dec), "ns");
            out.metric("mck.packed.self_ns_per_state", store_per_state, "ns");
            out.metric("mck.states_per_s", states as f64 / secs.max(1e-9), "1/s");
            out.metric(
                "mck.packed.bytes_per_state",
                packed_bytes as f64 / states.max(1) as f64,
                "B",
            );
        }
        Stack::Hashed => {
            out.metric("mck.bfs.self_ns_per_state", store_per_state, "ns");
        }
    }
    out.metric("raw.explained_ns", cal.covered(cell, children), "ns");
}
