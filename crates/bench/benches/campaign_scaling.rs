//! Campaign engine scaling: the snapshot executor vs the seed-style
//! fresh-boot-per-test executor, across thread counts, on the full
//! 2662-test paper campaign.
//!
//! Sampling is *paired*: each sample times one snapshot run and one
//! fresh-boot run back-to-back, so machine-load drift across the sampling
//! window hits both engines equally and cancels out of the speedups. The
//! committed `BENCH_campaign_scaling.json` holds full-mode numbers on the
//! same labels; the CI bench-smoke job diffs quick-mode runs against it.

use eagleeye::EagleEye;
use skrt::exec::{run_campaign, CampaignOptions};
use skrt_bench::Bench;
use std::hint::black_box;
use std::time::Instant;
use xm_campaign::paper_campaign;
use xtratum::vuln::KernelBuild;

/// One full campaign run; returns the elapsed ns.
fn run_once(spec: &skrt::suite::CampaignSpec, threads: usize, reuse_snapshot: bool) -> f64 {
    let o = CampaignOptions {
        build: KernelBuild::Legacy,
        threads,
        reuse_snapshot,
        ..Default::default()
    };
    let t = Instant::now();
    let result = run_campaign(&EagleEye, spec, &o);
    let elapsed = t.elapsed().as_nanos() as f64;
    black_box(result.records.len());
    elapsed
}

fn main() {
    let spec = paper_campaign();
    let mut b = Bench::new("campaign_scaling");
    let threads: &[usize] = if b.quick() { &[1, 4] } else { &[1, 2, 4, 8] };
    let samples = if b.quick() { 3 } else { 10 };
    let n = spec.total_tests();

    let cores = b.note_host();

    let mut lines = Vec::new();
    let mut snap_means = Vec::new();
    for &t in threads {
        // Warm both paths once (page cache, allocator arenas, CPU governor).
        run_once(&spec, t, true);
        run_once(&spec, t, false);
        let mut snapshot = Vec::with_capacity(samples);
        let mut fresh = Vec::with_capacity(samples);
        for _ in 0..samples {
            snapshot.push(run_once(&spec, t, true));
            fresh.push(run_once(&spec, t, false));
        }
        let snap_mean =
            b.record(&format!("snapshot_engine/threads_{t}"), &snapshot, Some(n)).mean_ns;
        snap_means.push((t, snap_mean));
        let fresh_mean =
            b.record(&format!("fresh_boot_seed_executor/threads_{t}"), &fresh, Some(n)).mean_ns;
        let speedup = (snapshot.iter().zip(&fresh).map(|(x, y)| (y / x).ln()).sum::<f64>()
            / samples as f64)
            .exp();
        b.note_meta(&format!("per_test_mean_ns/threads_{t}"), snap_mean / n as f64);
        b.note_meta(&format!("speedup_vs_fresh/threads_{t}"), speedup);
        lines.push(format!(
            "  threads {t}: snapshot {:.1} ms ({:.1} us/test), fresh-boot {:.1} ms, \
             speedup vs fresh {speedup:.2}x",
            snap_mean / 1e6,
            snap_mean / 1e3 / n as f64,
            fresh_mean / 1e6,
        ));
    }

    // Per-thread scaling table for the snapshot engine: speedup vs the
    // 1-thread run of the same section and parallel efficiency
    // (speedup / threads). `scripts/check_scaling.py` parses these meta
    // keys; `available_parallelism` above tells it how many speedups the
    // machine could physically have produced.
    let base = snap_means[0].1;
    for &(t, mean) in &snap_means {
        let speedup = base / mean;
        b.note_meta(&format!("speedup_vs_1thread/threads_{t}"), speedup);
        b.note_meta(&format!("efficiency/threads_{t}"), speedup / t as f64);
    }

    println!("\ncampaign engine configurations, {n}-test campaign:");
    println!("(speedups = geometric means of per-pair ratios; runs are interleaved)");
    for l in lines {
        println!("{l}");
    }
    println!("\nthread scaling (snapshot engine, {cores} core(s) available):");
    println!("  {:>7} {:>12} {:>9} {:>11}", "threads", "mean", "speedup", "efficiency");
    for &(t, mean) in &snap_means {
        println!(
            "  {t:>7} {:>9.1} ms {:>8.2}x {:>10.1}%",
            mean / 1e6,
            base / mean,
            100.0 * base / mean / t as f64
        );
    }

    // ---- Sweep workload (full cartesian invocation space) -------------
    //
    // The `campaign sweep` CLI workload: every hypercall in the API
    // header crossed with its complete dictionary product. Sampling is
    // paired *across thread counts* — each sample round runs every
    // thread count back-to-back — so load drift during the window hits
    // all rows equally and cancels out of the scaling ratios.
    let api = skrt::apispec::api_header_doc();
    let sweep_spec = xm_campaign::automatic_campaign(&api, &xm_campaign::paper_dictionary())
        .expect("automatic campaign builds from the generated spec docs");
    let sn = sweep_spec.total_tests();
    let mut sweep: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); threads.len()];
    for &t in threads {
        run_once(&sweep_spec, t, true);
    }
    for _ in 0..samples {
        for (i, &t) in threads.iter().enumerate() {
            sweep[i].push(run_once(&sweep_spec, t, true));
        }
    }
    let sweep_base =
        b.record(&format!("sweep_engine/threads_{}", threads[0]), &sweep[0], Some(sn)).mean_ns;
    println!("\nsweep workload ({sn}-test cartesian space), paired across thread counts:");
    println!("  {:>7} {:>12} {:>9} {:>11}", "threads", "mean", "speedup", "efficiency");
    for (i, &t) in threads.iter().enumerate() {
        let mean = if i == 0 {
            sweep_base
        } else {
            b.record(&format!("sweep_engine/threads_{t}"), &sweep[i], Some(sn)).mean_ns
        };
        // Geometric mean of per-round ratios, immune to inter-round drift.
        let speedup =
            (sweep[0].iter().zip(&sweep[i]).map(|(one, many)| (one / many).ln()).sum::<f64>()
                / samples as f64)
                .exp();
        b.note_meta(&format!("sweep_per_test_mean_ns/threads_{t}"), mean / sn as f64);
        b.note_meta(&format!("sweep_speedup_vs_1thread/threads_{t}"), speedup);
        b.note_meta(&format!("sweep_efficiency/threads_{t}"), speedup / t as f64);
        println!(
            "  {t:>7} {:>9.1} ms {:>8.2}x {:>10.1}%",
            mean / 1e6,
            speedup,
            100.0 * speedup / t as f64
        );
    }

    // ---- Stateful sequence campaigns vs the single-call engine --------
    //
    // Sampling stays paired: each sample times one single-call campaign
    // and the two sequence campaigns back-to-back. The comparable unit is
    // one injected hypercall: a single-call test injects one, an N-step
    // sequence injects N, so sequence throughput is reported per *step*.
    // The acceptance bar is per-step cost within 2x of the single-call
    // engine's per-test cost (legacy pays extra for one-step-per-slot
    // refinement and shrinking of every divergence; patched has none).
    let seq_count = if b.quick() { 150 } else { 500 };
    let seq_steps = 8usize;
    let injected = (seq_count * seq_steps) as u64;
    let seq_once = |build: KernelBuild, threads: usize| -> f64 {
        let o = skrt::sequence::SequenceOptions { build, threads, ..Default::default() };
        let t = Instant::now();
        let r = xm_campaign::run_eagleeye_sequences(1, seq_count, seq_steps, &o);
        let elapsed = t.elapsed().as_nanos() as f64;
        black_box(r.result.records.len());
        elapsed
    };
    let mut seq_lines = Vec::new();
    for &t in threads {
        run_once(&spec, t, true);
        seq_once(KernelBuild::Legacy, t);
        seq_once(KernelBuild::Patched, t);
        let mut single = Vec::with_capacity(samples);
        let mut legacy = Vec::with_capacity(samples);
        let mut patched = Vec::with_capacity(samples);
        for _ in 0..samples {
            single.push(run_once(&spec, t, true));
            legacy.push(seq_once(KernelBuild::Legacy, t));
            patched.push(seq_once(KernelBuild::Patched, t));
        }
        let single_mean = b
            .record(&format!("single_call_for_sequence_pairing/threads_{t}"), &single, Some(n))
            .mean_ns;
        let legacy_mean = b
            .record(&format!("sequence_campaign_legacy/threads_{t}"), &legacy, Some(injected))
            .mean_ns;
        let patched_mean = b
            .record(&format!("sequence_campaign_patched/threads_{t}"), &patched, Some(injected))
            .mean_ns;
        let single_per_test = single_mean / n as f64;
        let legacy_ratio = legacy_mean / injected as f64 / single_per_test;
        let patched_ratio = patched_mean / injected as f64 / single_per_test;
        b.note_meta(&format!("sequence_legacy_per_step_vs_single_call/threads_{t}"), legacy_ratio);
        b.note_meta(
            &format!("sequence_patched_per_step_vs_single_call/threads_{t}"),
            patched_ratio,
        );
        seq_lines.push(format!(
            "  threads {t}: single-call {:.2} us/test; sequences legacy {:.2} us/step ({:.2}x), \
             patched {:.2} us/step ({:.2}x)",
            single_per_test / 1e3,
            legacy_mean / injected as f64 / 1e3,
            legacy_ratio,
            patched_mean / injected as f64 / 1e3,
            patched_ratio,
        ));
    }
    println!(
        "\nsequence campaigns, {seq_count} sequences x {seq_steps} steps (seed 1), vs single-call:"
    );
    println!("(acceptance: per-step cost within 2x of single-call per-test cost)");
    for l in seq_lines {
        println!("{l}");
    }
    b.finish();
}
