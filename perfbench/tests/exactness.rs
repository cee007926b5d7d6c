//! The benchmark's exact figures must repeat bit for bit across runs of one
//! seed, on a small instance of every workload: a change to them is a change
//! in behaviour, never noise.

use perfbench::pipeline::{self, Checks};
use perfbench::replay::traced_fit;
use perfbench::trace::Tracer;
use perfbench::workload::{Spec, THREADS, WORKLOADS};

/// Shrink factor of the test instances (Syn fit 10,000 points, Household
/// 2,500, serving windows 1,500 and 500).
const SCALE: usize = 20;

/// The named workload, shrunk by `SCALE`.
fn small(name: &str) -> Spec {
    let mut spec = Spec::named(name).expect("known workload");
    spec.population /= SCALE;
    spec.generated /= SCALE;
    spec.window /= SCALE;
    spec.requests_per_round /= SCALE;
    spec
}

/// Every exact figure of one run, as `(name, bits)`.
fn exact_figures(name: &str, run: usize, seed: u64) -> Vec<(&'static str, u64)> {
    let spec = small(name);
    let dir = pipeline::run_dir(&format!("test-{name}-{run}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut checks = Checks::default();
    let state = pipeline::setup(&spec, seed, &dir.join("snapshot.dpca"), &mut checks)
        .expect("set-up succeeds");
    std::fs::remove_dir_all(&dir).expect("scratch directory removed");
    assert_eq!(checks.failed, 0, "{name}: set-up checks failed");

    let (center_match, rand) = pipeline::accuracy(&spec, &state.refs);
    let mut tr = Tracer::default();
    let model = traced_fit(&mut tr, pipeline::Algo::Ex, spec.params(THREADS), &state.inputs.fit)
        .expect("traced Ex-DPC fit");
    assert!(model.layout_eq(&state.refs[0]), "{name}: traced replay differs from ExDpc::fit");
    let count = |key| tr.last_count("core.exdpc_fit", key).expect("count recorded").to_bits();
    let centers = state.refs[0].extract(&spec.thresholds()).centers.len() as u64;
    vec![
        ("approx_center_match", center_match.to_bits()),
        ("sapprox_rand_index", rand.to_bits()),
        ("artifact_bytes", state.artifact_bytes),
        ("core.rho_pairs", count("rho_pairs")),
        ("core.centers", centers),
        ("index.grid_cells", count("grid_cells")),
        ("index.bucket_count", count("bucket_count")),
        ("index.kdtree_bytes", count("kdtree_bytes")),
        ("index.grid_bytes", count("grid_bytes")),
    ]
}

#[test]
fn exact_figures_repeat_bit_for_bit() {
    for name in WORKLOADS {
        let first = exact_figures(name, 0, 7);
        assert_eq!(first, exact_figures(name, 1, 7), "{name}: exact figures moved between runs");
        let center_match = f64::from_bits(first[0].1);
        assert_eq!(center_match, 1.0, "{name}: Theorem 4 centre match");
    }
}

#[test]
fn seeds_change_the_inputs() {
    let spec = small("syn_fit");
    assert_ne!(spec.generate(1).flat(), spec.generate(2).flat());
    assert_eq!(spec.generate(3).flat(), spec.generate(3).flat());
}
