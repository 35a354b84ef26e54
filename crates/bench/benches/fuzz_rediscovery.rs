//! Coverage-guided fuzzing vs pure-random sequence search: executions
//! to rediscovery of the seven canonical stateful defect signatures on
//! the legacy build (EXPERIMENTS §A10).
//!
//! Unlike the timing benches, the headline `results[]` labels here carry
//! **executions**, not nanoseconds: first-hit candidate-execution
//! indices are a pure function of the seed, so the committed baseline
//! diffs at exactly 0% on an unchanged fuzzer and any drift is a real
//! behaviour change, not machine noise. (`bench_diff.py` only compares
//! ratios, so the unit abuse is harmless.) Wall-clock throughput goes to
//! `meta`, which the diff gate ignores.
//!
//! Both strategies draw from the same alphabet and sequence-length
//! distribution and run single-threaded for exact pairing; a signature
//! a strategy misses inside the budget scores the full budget
//! (censored — see the `found/...` meta keys for miss counts). When
//! random search's median is itself the budget, the advantage is only a
//! lower bound: `advantage_overall_censored` is then 1 and the summary
//! prints `≥ X×`.

use skrt_bench::Bench;
use std::time::Instant;
use xm_campaign::fuzz::{fuzz_rediscovery, random_rediscovery, RediscoveryProbe};

const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
const BUDGET: u64 = 6000;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// `ratio×`, or `≥ ratio×` when the numerator is censored at the budget.
fn advantage(random_median: f64, fuzz_median: f64) -> String {
    let bound = if censored(random_median) { "≥ " } else { "" };
    format!("{bound}{:.2}x", random_median / fuzz_median)
}

/// A median equal to the budget: at least half the signatures were
/// missed, so the true value lies somewhere beyond the budget.
fn censored(median: f64) -> bool {
    median >= BUDGET as f64
}

/// Per-signature first hits with misses censored at the full budget.
fn hits(probe: &RediscoveryProbe) -> Vec<f64> {
    probe.first_hits.iter().map(|(_, h)| h.unwrap_or(BUDGET) as f64).collect()
}

fn main() {
    let mut b = Bench::new("fuzz_rediscovery");
    // Deterministic workload: identical in quick and full mode, so the
    // committed baseline always shares every label with the CI run.
    b.note_meta("budget_execs", BUDGET as f64);
    b.note_meta("seeds", SEEDS.len() as f64);
    // The execs/s meta keys are host-dependent; the results are not.
    b.note_host();

    let mut fuzz_medians = Vec::new();
    let mut rand_medians = Vec::new();
    let mut lines = Vec::new();
    for seed in SEEDS {
        let t = Instant::now();
        let fuzz = fuzz_rediscovery(seed, BUDGET, 1);
        let fuzz_wall = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let rand = random_rediscovery(seed, BUDGET, 1);
        let rand_wall = t.elapsed().as_secs_f64();

        let fm = median(hits(&fuzz));
        let rm = median(hits(&rand));
        if seed == SEEDS[0] {
            println!("per-signature first hits, seed {seed} (execs; '-' = not in {BUDGET}):");
            for ((sig, f), (_, r)) in fuzz.first_hits.iter().zip(&rand.first_hits) {
                let show = |h: &Option<u64>| h.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
                println!(
                    "  {:<14} {:<28} @ {:<20} fuzz {:>6}  random {:>6}",
                    sig.classification.class.label(),
                    format!("{:?}", sig.classification.cause),
                    sig.hypercall.map(|h| h.name()).unwrap_or("<none>"),
                    show(f),
                    show(r),
                );
            }
        }
        b.record(&format!("fuzz/median_execs_to_find/seed_{seed}"), &[fm], None);
        b.record(&format!("random/median_execs_to_find/seed_{seed}"), &[rm], None);
        b.note_meta(&format!("found/fuzz/seed_{seed}"), fuzz.found() as f64);
        b.note_meta(&format!("found/random/seed_{seed}"), rand.found() as f64);
        b.note_meta(&format!("execs_per_sec/fuzz/seed_{seed}"), fuzz.execs as f64 / fuzz_wall);
        b.note_meta(&format!("execs_per_sec/random/seed_{seed}"), rand.execs as f64 / rand_wall);
        fuzz_medians.push(fm);
        rand_medians.push(rm);
        lines.push(format!(
            "  seed {seed}: fuzz median {fm:.0} execs ({}/7 found), random median {rm:.0} \
             execs ({}/7 found), advantage {}",
            fuzz.found(),
            rand.found(),
            advantage(rm, fm),
        ));
    }

    let fuzz_overall = median(fuzz_medians.clone());
    let rand_overall = median(rand_medians.clone());
    b.record("fuzz/median_execs_to_find/overall", &[fuzz_overall], None);
    b.record("random/median_execs_to_find/overall", &[rand_overall], None);
    b.note_meta("advantage_overall", rand_overall / fuzz_overall);
    b.note_meta("advantage_overall_censored", f64::from(u8::from(censored(rand_overall))));

    println!("executions to rediscovery of the 7 stateful signatures (legacy, budget {BUDGET}):");
    for l in lines {
        println!("{l}");
    }
    println!(
        "\noverall medians: fuzz {fuzz_overall:.0} execs, random {rand_overall:.0} execs \
         ({} advantage{})",
        advantage(rand_overall, fuzz_overall),
        if censored(rand_overall) {
            "; random search's median is censored at the budget, so this is a lower bound"
        } else {
            ""
        }
    );
    assert!(
        fuzz_overall < rand_overall,
        "coverage guidance lost to pure-random search: {fuzz_overall} >= {rand_overall}"
    );
    b.finish();
}
