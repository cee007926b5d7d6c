//! Benchmark of the dependent-point (δ) kernels: the Scan approach versus
//! Ex-DPC's nearest-denser kd-tree queries, plus a full Approx-DPC fit for
//! reference.

use dpc_baselines::Scan;
use dpc_bench::micro::bench;
use dpc_bench::{default_params, BenchDataset};
use dpc_core::{ApproxDpc, DpcAlgorithm, ExDpc};
use dpc_index::KdTree;

const N: usize = 8_000;

fn main() {
    let dataset = BenchDataset::Syn;
    let data = dataset.generate(N);
    let params = default_params(&dataset, 1);
    println!("dependent_point ({} n = {N})", dataset.name());

    // Densities are shared input for both kernels.
    let tree = KdTree::build(&data);
    let rho = ExDpc::new(params).local_densities(&data, &tree);
    drop(tree);

    let scan = Scan::new(params);
    bench("scan_early_termination", 5, || scan.dependent_points(&data, &rho));

    let exdpc = ExDpc::new(params);
    bench("exdpc_nearest_denser", 5, || exdpc.dependent_points(&data, &rho));

    let approx = ApproxDpc::new(params);
    bench("approx_dpc_full_fit_for_reference", 5, || approx.fit(&data).expect("fit Syn").len());
}
