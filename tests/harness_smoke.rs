//! Smoke tests of the experiment harness (`bsp-bench`): the same plumbing
//! `exp_paper` uses, exercised end-to-end at a miniature scale.

use bsp_bench::eval::{evaluate_dataset, AlgoCosts};
use bsp_bench::instances::{scaled_dataset, Scale};
use bsp_bench::stats::{geo_mean_ratio, reduction_pct};
use bsp_bench::table::Table;
use bsp_bench::CliArgs;
use bsp_model::Machine;
use bsp_sched::pipeline::PipelineConfig;
use dag_gen::dataset::DatasetKind;

#[test]
fn smoke_scale_no_numa_cell_produces_sensible_reductions() {
    let instances = scaled_dataset(DatasetKind::Tiny, Scale::Smoke, 7);
    assert!(!instances.is_empty());
    let machine = Machine::uniform(8, 3, 5);
    let results = evaluate_dataset(&instances, &machine, &PipelineConfig::fast());
    assert_eq!(results.len(), instances.len());

    let costs: Vec<AlgoCosts> = results.iter().map(|r| r.costs).collect();
    for c in &costs {
        assert!(c.ours <= c.init);
    }
    let vs_cilk = reduction_pct(geo_mean_ratio(&costs, |c| c.ours, |c| c.cilk));
    let vs_hdagg = reduction_pct(geo_mean_ratio(&costs, |c| c.ours, |c| c.hdagg));
    // Our scheduler must not be worse than the baselines on aggregate; the
    // paper reports 30–50% gains, but the smoke scale only needs the sign.
    assert!(vs_cilk >= 0.0, "vs Cilk reduction {vs_cilk}");
    assert!(vs_hdagg >= -5.0, "vs HDagg reduction {vs_hdagg}");
    assert!(vs_cilk <= 100.0 && vs_hdagg <= 100.0);
}

#[test]
fn numa_cell_shows_larger_gains_than_the_uniform_cell() {
    // Qualitative check of the paper's headline: gains vs Cilk grow when NUMA
    // effects are enabled (Table 1 vs Table 2).  Allow a generous slack since
    // the smoke instances are small.
    let instances = scaled_dataset(DatasetKind::Tiny, Scale::Smoke, 11);
    let run = |machine: &Machine| {
        let results = evaluate_dataset(&instances, machine, &PipelineConfig::fast());
        let costs: Vec<AlgoCosts> = results.iter().map(|r| r.costs).collect();
        reduction_pct(geo_mean_ratio(&costs, |c| c.ours, |c| c.cilk))
    };
    let uniform = run(&Machine::uniform(8, 1, 5));
    let numa = run(&Machine::numa_binary_tree(8, 1, 5, 4));
    assert!(
        numa + 10.0 >= uniform,
        "NUMA gain {numa:.1}% unexpectedly far below uniform gain {uniform:.1}%"
    );
}

#[test]
fn cli_args_scale_and_table_rendering_work_together() {
    let args = CliArgs::parse(["--scale", "smoke", "--seed", "5", "--quick"]);
    assert_eq!(args.scale(), Scale::Smoke);
    assert_eq!(args.seed(), 5);
    assert!(args.flag("quick"));

    let mut table = Table::new("Table 1", ["P \\ g", "g = 1"]);
    table.add_row(["P = 4".to_string(), "32% / 20%".to_string()]);
    let rendered = table.render();
    assert!(rendered.contains("Table 1"));
    assert!(rendered.contains("32% / 20%"));
}

#[test]
fn scaled_datasets_are_deterministic_per_seed() {
    let a = scaled_dataset(DatasetKind::Medium, Scale::Smoke, 42);
    let b = scaled_dataset(DatasetKind::Medium, Scale::Smoke, 42);
    let c = scaled_dataset(DatasetKind::Medium, Scale::Smoke, 43);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.dag, y.dag);
    }
    // A different seed changes at least one instance.
    assert!(
        a.iter().zip(&c).any(|(x, y)| x.dag != y.dag),
        "different seeds produced identical datasets"
    );
}
