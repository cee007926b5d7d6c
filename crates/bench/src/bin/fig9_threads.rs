//! Figure 9: running time vs the number of threads.
//!
//! On the paper's 24-core machine this shows near-linear scaling for
//! Approx-DPC / S-Approx-DPC, limited scaling for Ex-DPC (sequential dependent
//! phase) and for LSH-DDP (no load balancing). Every fit here schedules its
//! phases dynamically, so thread counts beyond the host's parallelism show
//! spawn overhead rather than a speedup.

use dpc_bench::cli::print_row;
use dpc_bench::{
    default_params, default_thresholds, run_algorithm, Algo, BenchDataset, HarnessArgs,
};

fn main() {
    let args = HarnessArgs::from_env();
    let thread_counts = [1usize, 2, 4, 8, 16];
    let algorithms =
        if args.full { Algo::all(args.epsilon) } else { Algo::fast_only(args.epsilon) };
    println!(
        "Figure 9: running time [s] vs number of threads (n = {}, host parallelism = {})",
        args.n,
        std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1)
    );
    for dataset in BenchDataset::real_datasets() {
        let data = dataset.generate(args.n);
        let thresholds = default_thresholds(dataset.default_dcut());
        println!("\n{}", dataset.name());
        let mut header = vec!["threads".to_string()];
        header.extend(algorithms.iter().map(|a| a.name()));
        let widths = vec![8; header.len() + 1];
        print_row(&header, &widths);
        for &threads in &thread_counts {
            let params = default_params(&dataset, threads);
            let mut cells = vec![threads.to_string()];
            for algo in &algorithms {
                let (_, secs) = run_algorithm(algo, &data, params, &thresholds);
                cells.push(format!("{secs:.2}"));
            }
            print_row(&cells, &widths);
        }
    }
    println!(
        "\nExpected shape (paper): Approx-DPC and S-Approx-DPC exploit added threads; Ex-DPC \
         plateaus once the sequential dependent phase dominates; LSH-DDP scales irregularly."
    );
}
