//! Golden schedule digests: every schedule constructor, `place_sources` and
//! `merge_supersteps`, `HC`, `HCcs`, the funnel round trip and
//! `Pipeline::run_report`, pinned bit for bit by one committed table,
//! `tests/golden/schedules.tsv`.  The table is the oracle: it was recorded
//! from the routines as they stood before their rewrites, and every rewrite
//! since has left it alone; a change that means to move schedules re-pastes
//! it and names the rows that moved.
//!
//! A row is one routine over one case set.  It holds the summed cost of the
//! routine's outputs and a 64-bit FNV-1a digest of all of them: `π`, `τ` and
//! `Γ` as `u32`s, a classical baseline's `(proc, start)` before the
//! conversion, `HC`'s steps and local-minimum flag, a pipeline report's
//! selected start, width and stage costs.  Its last column is the digest of
//! each machine of the case set, in the set's order, so that a mismatch
//! names the first machine whose outputs moved.
//!
//! Each row is checked by exactly one test ([`Check`]), so no test binary
//! computes another's rows.  A change that means to move schedules runs the
//! tests, reads which rows and machines they name, and pastes the table a
//! failure prints over the committed one; review reads the moved rows.
//! There is no flag and no environment variable: the table is data, and
//! only a commit changes it.  A new routine or case set is a new row: add it
//! to [`rows`], give it a test in [`Check::of`], and paste.

use super::{benchmark_families, benchmark_machines, machine_grid, rng_for_case, zero_work_dag};
use bsp_model::fingerprint::Fnv64;
use bsp_model::{
    Assignment, BspSchedule, ClassicalSchedule, CommSchedule, Dag, Machine, NumaTopology,
};
use bsp_sched::baselines::{BlEstScheduler, CilkScheduler, EtfScheduler, HDaggScheduler};
use bsp_sched::hill_climb::{
    hc_improve, hc_search, hccs_improve, HcState, HillClimbConfig, HillClimbOutcome, SearchScratch,
};
use bsp_sched::init::{merge_supersteps, place_sources, BspgScheduler, SourceScheduler};
use bsp_sched::pipeline::Pipeline;
use bsp_sched::{Funnel, Scheduler};
use dag_gen::{coarse_dag, spmv, CoarseAlgorithm, CoarseConfig, SpmvConfig};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::rc::Rc;
use Shape::{Chains, Fans, Layered, Ties, ZeroWork};

/// The committed table.
const TABLE: &str = include_str!("../golden/schedules.tsv");

/// The table's header line.
const HEADER: &str = "routine\tcases\tcost\tdigest\tper machine";

/// The model's 64-bit FNV-1a (`Fnv64`, the request fingerprints' hash) fed
/// the little-endian bytes of a routine's outputs.
struct Fnv(Fnv64);

impl Fnv {
    fn new() -> Self {
        Fnv(Fnv64::new())
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0.write_bytes(bytes);
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.0.write_u64(x);
    }

    fn u32s(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        xs.iter().for_each(|&x| self.u32(x));
    }

    fn assignment(&mut self, a: &Assignment) {
        self.u32s(&a.proc);
        self.u32s(&a.superstep);
    }

    fn comm(&mut self, comm: &CommSchedule) {
        self.u64(comm.len() as u64);
        for s in comm.steps() {
            for x in [s.node, s.from, s.to, s.step] {
                self.u32(x);
            }
        }
    }

    fn schedule(&mut self, s: &BspSchedule) {
        self.assignment(&s.assignment);
        self.comm(&s.comm);
    }

    fn classical(&mut self, cs: &ClassicalSchedule) {
        self.u64(cs.n() as u64);
        for (&q, &t) in cs.proc.iter().zip(&cs.start) {
            self.u32(u32::try_from(q).expect("a processor index fits u32"));
            self.u64(t);
        }
    }

    fn outcome(&mut self, o: &HillClimbOutcome) {
        self.u64(o.steps as u64);
        self.u32(u32::from(o.reached_local_minimum));
    }
}

/// A case set: its parts in order, each a label and its cases in order.
type Parts<T> = Vec<(String, Vec<T>)>;

/// A routine over one DAG on one machine: feeds every output to the digest
/// and returns the cost.
type Routine = Box<dyn Fn(&Dag, &Machine, &mut Fnv) -> u64>;

/// Routines by row name.
type Routines = Vec<(&'static str, Routine)>;

fn label(machine: &Machine) -> String {
    let (p, g, l) = (machine.p(), machine.g(), machine.latency());
    match machine.topology() {
        NumaTopology::Uniform => format!("uniform({p},{g},{l})"),
        NumaTopology::BinaryTree { delta } => format!("tree({p},{g},{l},{delta})"),
        NumaTopology::Explicit(_) => format!("explicit({p},{g},{l})"),
    }
}

/// `dags` on each of `machines`, one part a machine.
fn on(dags: &[Dag], machines: &[Machine]) -> Parts<(Dag, Machine)> {
    let cases = |m: &Machine| dags.iter().map(|d| (d.clone(), m.clone())).collect();
    machines.iter().map(|m| (label(m), cases(m))).collect()
}

/// What a random DAG is made to stress.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Sparse layered DAG, random weights.
    Layered,
    /// A few long chains with rare cross links: one superstep per node in
    /// `BSPg`, long pull-in chains in `Source`.
    Chains,
    /// Hubs fanning out to, and joining from, many nodes.
    Fans,
    /// `Layered` with every work and communication weight 1, so `BSPg`
    /// scores tie and the id tie-break decides.
    Ties,
    /// `Layered` with a third of the nodes of work 0: nodes start at the
    /// instant their predecessor does, which is what sends the conversion
    /// into its degenerate branch.
    ZeroWork,
}

const SHAPES: [Shape; 5] = [Layered, Chains, Fans, Ties, ZeroWork];

/// A random DAG of `shape`.  Node ids are shuffled, so an edge may run from
/// a larger id to a smaller one.
fn shaped_dag(rng: &mut ChaCha8Rng, shape: Shape) -> Dag {
    let n = rng.gen_range(2usize..=70);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    match shape {
        Layered | Ties | ZeroWork => {
            let width = rng.gen_range(1usize..=8);
            for v in width..n {
                let layer_start = (v / width - 1) * width;
                for u in layer_start..layer_start + width {
                    if rng.gen_bool(0.35) {
                        edges.push((u, v));
                    }
                }
            }
        }
        Chains => {
            let chains = rng.gen_range(1usize..=4);
            for v in chains..n {
                edges.push((v - chains, v));
                if v > chains && rng.gen_bool(0.1) {
                    edges.push((v - chains - 1, v));
                }
            }
        }
        Fans => {
            let span = rng.gen_range(3usize..=12);
            let mut hub = 0;
            while hub + span + 1 < n {
                for v in hub + 1..=hub + span {
                    edges.push((hub, v));
                    edges.push((v, hub + span + 1));
                }
                hub += span + 1;
            }
        }
    }
    let mut label: Vec<usize> = (0..n).collect();
    label.shuffle(rng);
    for e in &mut edges {
        *e = (label[e.0], label[e.1]);
    }
    let (work, comm): (Vec<u64>, Vec<u64>) = match shape {
        Ties => (vec![1; n], vec![1; n]),
        ZeroWork => (0..n)
            .map(|_| {
                let work = if rng.gen_bool(0.33) {
                    0
                } else {
                    rng.gen_range(1u64..4)
                };
                (work, rng.gen_range(0u64..4))
            })
            .unzip(),
        _ => (0..n)
            .map(|_| (rng.gen_range(1u64..20), rng.gen_range(0u64..10)))
            .unzip(),
    };
    Dag::from_edges(n, &edges, work, comm).expect("edges follow one topological order")
}

/// 220 DAGs, 44 of each shape.
pub fn random_dags() -> Vec<Dag> {
    let shape = |(s, &shape): (usize, &Shape)| {
        (0..44).map(move |case| shaped_dag(&mut rng_for_case(0xC0_57 + s as u64, case), shape))
    };
    SHAPES.iter().enumerate().flat_map(shape).collect()
}

/// Every processor count of 1, 2, 4 and 8 as a uniform and as a NUMA machine.
pub fn random_machines() -> Vec<Machine> {
    let (uniform, tree) = (Machine::uniform, Machine::numa_binary_tree);
    let pair = |p| [uniform(p, 3, 5), tree(p, 2, 5, 3)];
    [1, 2, 4, 8].into_iter().flat_map(pair).collect()
}

/// Arbitrary classical schedules, consistent or not, of 60 DAGs of each
/// shape: few distinct start times make ties, and ties on a blocked first
/// node are the conversion's degenerate branch.  One part per `P`, each
/// schedule costed on `uniform(P, 3, 5)`.
fn conversion_set() -> Parts<(Dag, ClassicalSchedule, Machine)> {
    let mut parts: Parts<_> = (0..4)
        .map(|i| (format!("P = {}", 1 << i), vec![]))
        .collect();
    for (s, &shape) in SHAPES.iter().enumerate() {
        for case in 0..60 {
            let mut rng = rng_for_case(0x70_B5 + s as u64, case);
            let dag = shaped_dag(&mut rng, shape);
            let log_p = rng.gen_range(0usize..=3);
            let horizon = rng.gen_range(1u64..=6);
            let cs = ClassicalSchedule::new(
                (0..dag.n()).map(|_| rng.gen_range(0..1 << log_p)).collect(),
                (0..dag.n()).map(|_| rng.gen_range(0..horizon)).collect(),
            );
            let machine = Machine::uniform(1 << log_p, 3, 5);
            parts[log_p].1.push((dag, cs, machine));
        }
    }
    parts
}

/// `HDagg` where its choices tie: every work and communication weight of a
/// DAG equal (1, 2 or 5), so wavefronts order by id alone and affinities tie.
pub fn tie_dags() -> Vec<Dag> {
    let tied = |case: u64| {
        let shape = [Ties, Fans][case as usize % 2];
        let unit = shaped_dag(&mut rng_for_case(0x4DA6, case), shape);
        let (n, weight) = (unit.n(), [1u64, 2, 5][case as usize % 3]);
        let edges: Vec<(usize, usize)> = unit.edges().collect();
        Dag::from_edges(n, &edges, vec![weight; n], vec![weight; n]).unwrap()
    };
    (0..60).map(tied).collect()
}

/// 1, 3 and 8 processors, where the tie set's slack binds.
pub fn tie_machines() -> [Machine; 3] {
    [1, 3, 8].map(|p| Machine::uniform(p, 3, 5))
}

/// DAGs of 500–800 nodes, whose ready sets run to hundreds of nodes: `ETF`
/// keeps most of them waiting on a processor and releases them as the
/// processor's time passes their data-ready time.
fn wide_dags() -> Vec<Dag> {
    let dags = vec![
        spmv(&SpmvConfig {
            n: 36,
            density: 8.0 / 36.0,
            seed: 5,
        }),
        coarse_dag(&CoarseConfig {
            algorithm: CoarseAlgorithm::PageRank,
            iterations: 120,
        }),
    ];
    assert!(dags.iter().all(|dag| (500..=800).contains(&dag.n())));
    dags
}

/// A classical baseline: its `(proc, start)`, their conversion to
/// supersteps and the BSP schedule it returns.
fn classical(baseline: impl Fn(&Dag, &Machine) -> ClassicalSchedule + 'static) -> Routine {
    Box::new(move |dag, machine, d| {
        let cs = baseline(dag, machine);
        d.classical(&cs);
        d.assignment(&cs.to_bsp_assignment(dag));
        let bsp = cs.to_bsp(dag);
        d.schedule(&bsp);
        bsp.cost(dag, machine)
    })
}

/// The BSP schedule a scheduler returns.
fn bsp(scheduler: impl Scheduler + 'static) -> Routine {
    Box::new(move |dag, machine, d| {
        let schedule = scheduler.schedule(dag, machine);
        d.schedule(&schedule);
        schedule.cost(dag, machine)
    })
}

/// An initializer's raw `(π, τ)` and the normalized schedule it returns.
fn initializer<S: Scheduler + 'static>(s: S, raw: fn(&S, &Dag, &Machine) -> Assignment) -> Routine {
    Box::new(move |dag, machine, d| {
        d.assignment(&raw(&s, dag, machine));
        let schedule = s.schedule(dag, machine);
        d.schedule(&schedule);
        schedule.cost(dag, machine)
    })
}

/// Both initializers on every prefix width, sources placed on the full
/// machine, with whether the placement kept its move.
fn placed(dag: &Dag, machine: &Machine, d: &mut Fnv) -> u64 {
    let mut cost = 0;
    for init in [&BspgScheduler as &dyn Scheduler, &SourceScheduler] {
        for width in 1..=machine.p() {
            let mut schedule = init.schedule(dag, &machine.prefix(width));
            d.u32(u32::from(place_sources(dag, machine, &mut schedule)));
            d.schedule(&schedule);
            cost += schedule.cost(dag, machine);
        }
    }
    cost
}

/// Both initializers on every prefix width, sources placed, then supersteps
/// merged, with how many went and the schedule under its lazy `Γ`.
fn merged(dag: &Dag, machine: &Machine, d: &mut Fnv) -> u64 {
    let mut cost = 0;
    for init in [&BspgScheduler as &dyn Scheduler, &SourceScheduler] {
        for width in 1..=machine.p() {
            let mut schedule = init.schedule(dag, &machine.prefix(width));
            place_sources(dag, machine, &mut schedule);
            let removed = merge_supersteps(dag, &mut schedule.assignment);
            if removed > 0 {
                schedule.relax_to_lazy(dag);
            }
            d.u64(removed as u64);
            d.schedule(&schedule);
            cost += schedule.cost(dag, machine);
        }
    }
    cost
}

/// The reduction's clusters, and `BSPg`'s schedule of the funnel DAG
/// projected back; nothing when nothing contracts.
fn funnel(dag: &Dag, machine: &Machine, d: &mut Fnv) -> u64 {
    let Some(funnel) = Funnel::contract(dag, machine.p()) else {
        d.u64(0);
        return 0;
    };
    let narrow = |v: usize| u32::try_from(v).unwrap();
    d.u32s(
        &funnel
            .roots()
            .iter()
            .map(|&r| narrow(r))
            .collect::<Vec<_>>(),
    );
    d.u32s(
        &(0..dag.n())
            .map(|v| narrow(funnel.cluster_of(v)))
            .collect::<Vec<_>>(),
    );
    let projected = funnel.project(&BspgScheduler.schedule(funnel.dag(), machine));
    d.schedule(&projected);
    projected.cost(dag, machine)
}

/// The three starts `HC` is run from.
fn starts() -> [Box<dyn Scheduler>; 3] {
    [
        Box::new(BspgScheduler),
        Box::new(SourceScheduler),
        Box::new(CilkScheduler::default()),
    ]
}

/// `HC` from each start over a work-list of the first `n / part` nodes,
/// stopped after `max_steps` moves or at the local minimum.
fn hc(max_steps: usize, part: usize) -> Routine {
    Box::new(move |dag, machine, d| {
        let (mut cost, config) = (0, HillClimbConfig::with_max_steps(max_steps));
        for start in starts() {
            let assignment = start.schedule(dag, machine).assignment;
            let mut state = HcState::new(dag, machine, assignment).expect("a feasible start");
            let mut scratch = SearchScratch::new();
            (0..dag.n() / part).for_each(|v| scratch.enqueue(v));
            let outcome = hc_search(dag, machine, &mut state, &config, &mut scratch);
            d.assignment(&state.assignment());
            d.outcome(&outcome);
            cost += outcome.final_cost;
        }
        cost
    })
}

/// `HCcs` on each start after `HC` at its local minimum, stopped after
/// `max_steps` moves or at its own.
fn hccs(max_steps: usize) -> Routine {
    Box::new(move |dag, machine, d| {
        let (mut cost, config) = (0, HillClimbConfig::with_max_steps(max_steps));
        for start in starts() {
            let mut schedule = start.schedule(dag, machine);
            hc_improve(dag, machine, &mut schedule, &HillClimbConfig::default());
            let outcome = hccs_improve(dag, machine, &mut schedule, &config);
            d.schedule(&schedule);
            d.outcome(&outcome);
            cost += outcome.final_cost;
        }
        cost
    })
}

fn pipeline(dag: &Dag, machine: &Machine, d: &mut Fnv) -> u64 {
    let report = Pipeline::default().run_report(dag, machine);
    d.schedule(&report.schedule);
    d.bytes(report.selected_init.as_bytes());
    let numbers = [report.placement_width as u64, report.funnel_nodes as u64];
    let costs = [
        report.init_cost,
        report.local_search_cost,
        report.final_cost,
    ];
    numbers.into_iter().chain(costs).for_each(|x| d.u64(x));
    report.final_cost
}

/// The conversion of an arbitrary classical schedule.
fn to_bsp((dag, cs, machine): &(Dag, ClassicalSchedule, Machine), d: &mut Fnv) -> u64 {
    d.assignment(&cs.to_bsp_assignment(dag));
    let bsp = cs.to_bsp(dag);
    d.schedule(&bsp);
    bsp.cost(dag, machine)
}

/// The lazy `Γ` of the conversion, costed by its length.
fn lazy((dag, cs, _): &(Dag, ClassicalSchedule, Machine), d: &mut Fnv) -> u64 {
    let comm = CommSchedule::lazy(dag, &cs.to_bsp_assignment(dag));
    d.comm(&comm);
    comm.len() as u64
}

/// The constructors, the first four classical.
fn constructors() -> Routines {
    vec![
        (
            "Cilk",
            classical(|g, m| CilkScheduler::default().classical_schedule(g, m)),
        ),
        (
            "Cilk seed 7",
            classical(|g, m| CilkScheduler::new(7).classical_schedule(g, m)),
        ),
        (
            "BL-EST",
            classical(|g, m| BlEstScheduler.classical_schedule(g, m)),
        ),
        (
            "ETF",
            classical(|g, m| EtfScheduler.classical_schedule(g, m)),
        ),
        ("HDagg", bsp(HDaggScheduler::default())),
        (
            "BSPg",
            initializer(BspgScheduler, BspgScheduler::assignment),
        ),
        (
            "Source",
            initializer(SourceScheduler, SourceScheduler::assignment),
        ),
        ("place_sources", Box::new(placed)),
        ("funnel", Box::new(funnel)),
    ]
}

/// The test that checks a row of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Every constructor on the random set (`constructor_equivalence`).
    Random,
    /// Every constructor on the benchmark families (`constructor_equivalence`).
    Families,
    /// `to_bsp` and `lazy` on arbitrary classical schedules
    /// (`constructor_equivalence`).
    Conversion,
    /// `BL-EST` and `ETF` on the wide ready sets (`constructor_equivalence`).
    Wide,
    /// `HC` and `HCcs` on the benchmark families (`hc_equivalence`).
    Driver,
    /// The pipeline, `HDagg` on the tie set and the classical baselines on
    /// zero-work DAGs (`golden`).
    Rest,
}

impl Check {
    /// The test that checks the row of `routine` over `cases`.
    fn of(routine: &str, cases: &str) -> Check {
        match (cases, routine) {
            ("random", _) => Check::Random,
            ("conversion", _) => Check::Conversion,
            ("wide", _) => Check::Wide,
            ("families", "Pipeline") => Check::Rest,
            ("families", r) if r.starts_with("HC") => Check::Driver,
            ("families", _) => Check::Families,
            _ => Check::Rest,
        }
    }
}

/// A routine over a case set: the summed cost and, per part of the set, its
/// label and the digest of its outputs.
struct Digests {
    cost: u64,
    parts: Vec<(String, u64)>,
}

/// One line of the table, computed on demand.
struct Row {
    routine: &'static str,
    cases: &'static str,
    compute: Box<dyn Fn() -> Digests>,
}

impl Row {
    fn new<T: 'static>(
        routine: &'static str,
        cases: &'static str,
        set: Rc<Parts<T>>,
        f: impl Fn(&T, &mut Fnv) -> u64 + 'static,
    ) -> Row {
        let compute = move || {
            let mut cost = 0;
            let mut part = |(label, cases): &(String, Vec<T>)| {
                let mut digest = Fnv::new();
                cost += cases.iter().map(|case| f(case, &mut digest)).sum::<u64>();
                (label.clone(), digest.0.finish())
            };
            let parts = set.iter().map(&mut part).collect();
            Digests { cost, parts }
        };
        Row {
            routine,
            cases,
            compute: Box::new(compute),
        }
    }

    fn check(&self) -> Check {
        Check::of(self.routine, self.cases)
    }

    fn line(&self, digests: &Digests) -> String {
        let (mut digest, mut parts) = (Fnv64::new(), Vec::new());
        for &(_, part) in &digests.parts {
            digest.write_u64(part);
            parts.push(format!("{part:016x}"));
        }
        let (routine, cases, cost) = (self.routine, self.cases, digests.cost);
        let (digest, parts) = (digest.finish(), parts.join(","));
        format!("{routine}\t{cases}\t{cost}\t{digest:016x}\t{parts}")
    }
}

/// One row per routine of `routines` over `dags` on each of `machines`.
fn over(cases: &'static str, dags: &[Dag], machines: &[Machine], routines: Routines) -> Vec<Row> {
    let set = Rc::new(on(dags, machines));
    let row = |(routine, f): (&'static str, Routine)| {
        Row::new(routine, cases, set.clone(), move |(dag, m), d| f(dag, m, d))
    };
    routines.into_iter().map(row).collect()
}

/// Every row, in table order, none of them computed yet.
fn rows() -> Vec<Row> {
    let families: Vec<Dag> = benchmark_families().into_iter().map(|(_, d)| d).collect();
    let searches: Routines = vec![
        ("HC 1 move", hc(1, 1)),
        ("HC 7 moves", hc(7, 1)),
        ("HC", hc(usize::MAX, 1)),
        ("HC seeded", hc(usize::MAX, 3)),
        ("HCcs 1 move", hccs(1)),
        ("HCcs 7 moves", hccs(7)),
        ("HCcs", hccs(usize::MAX)),
    ];
    let pipeline = || -> Routines { vec![("Pipeline", Box::new(pipeline))] };
    let slack = |balance_slack| bsp(HDaggScheduler { balance_slack });
    let ties = vec![("HDagg slack 1", slack(1.0)), ("HDagg slack 2", slack(2.0))];
    let (uniform, tree) = (Machine::uniform, Machine::numa_binary_tree);
    let wide = [
        uniform(4, 3, 5),
        tree(4, 1, 5, 3),
        uniform(8, 1, 5),
        tree(8, 3, 5, 3),
    ];
    let zero_work: Vec<Dag> = (0..40)
        .map(|case| zero_work_dag(&mut rng_for_case(0x2E_40, case)))
        .collect();
    let pick = |range| constructors().drain(range).collect();
    let conversion = Rc::new(conversion_set());
    let to_bsp = Row::new("to_bsp", "conversion", conversion.clone(), to_bsp);
    let lazy = Row::new("lazy", "conversion", conversion, lazy);
    let (bench, grid) = (benchmark_machines(), machine_grid());
    let merge: Routines = vec![("merge_supersteps", Box::new(merged))];
    let random = random_dags();
    [
        over("random", &random, &random_machines(), constructors()),
        over("random", &random, &random_machines(), merge),
        over("families", &families, &bench, constructors()),
        over("families", &families, &bench, searches),
        over("families", &families, &bench, pipeline()),
        over("ties", &tie_dags(), &tie_machines(), ties),
        over("wide", &wide_dags(), &wide, pick(2..4)),
        over("zero_work", &zero_work, &grid, pick(0..4)),
        over("grid", &families, &grid, pipeline()),
        vec![to_bsp, lazy],
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// The committed rows `check` covers, split into columns.
fn committed(check: Check) -> Vec<Vec<&'static str>> {
    let columns = |line: &'static str| line.split('\t').collect::<Vec<_>>();
    let covered = |c: &Vec<&str>| Check::of(c[0], c.get(1).copied().unwrap_or("")) == check;
    TABLE.lines().skip(1).map(columns).filter(covered).collect()
}

/// The first computed row the committed table does not hold, and the first
/// machine of it that moved.
fn first_difference(rows: &[(&Row, Digests)], committed: &[Vec<&str>]) -> String {
    for (row, digests) in rows {
        let what = format!("{} on {}", row.routine, row.cases);
        let Some(old) = committed
            .iter()
            .find(|c| c[..2] == [row.routine, row.cases])
        else {
            return format!("{what} is not in the table");
        };
        let old_parts: Vec<&str> = old.get(4).map_or(vec![], |p| p.split(',').collect());
        for (i, (machine, part)) in digests.parts.iter().enumerate() {
            if old_parts.get(i) != Some(&format!("{part:016x}").as_str()) {
                return format!(
                    "{what}: {machine} moved first (cost {} → {})",
                    old.get(2).unwrap_or(&"?"),
                    digests.cost
                );
            }
        }
    }
    "a committed row is no longer computed, or the rows are out of order".to_string()
}

/// Computes the rows `check` covers and asserts that the committed table
/// holds exactly them, in order.  On a mismatch it names the first row and
/// machine that moved and prints the whole new table to paste.
pub fn check(check: Check) {
    assert_eq!(TABLE.lines().next(), Some(HEADER), "the table's header");
    let all = rows();
    assert!(all.len() <= 150, "{} rows", all.len());
    let computed: Vec<(&Row, Digests)> = (all.iter())
        .filter(|row| row.check() == check)
        .map(|row| (row, (row.compute)()))
        .collect();
    let lines: Vec<String> = computed.iter().map(|(row, d)| row.line(d)).collect();
    let committed = committed(check);
    if lines != committed.iter().map(|c| c.join("\t")).collect::<Vec<_>>() {
        let table: Vec<String> = all.iter().map(|row| row.line(&(row.compute)())).collect();
        panic!(
            "{}.\nIf the change means to move these schedules, replace \
             tests/golden/schedules.tsv with:\n{HEADER}\n{}\n",
            first_difference(&computed, &committed),
            table.join("\n")
        );
    }
}
