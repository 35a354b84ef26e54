//! The campaign must be deterministic and parallelism-independent:
//! shell-script or thread-pool execution, the logs are the same. This is
//! what makes the log-analysis phase trustworthy — and what lets the
//! snapshot-reusing sharded executor optimise freely.

use eagleeye::EagleEye;
use skrt::exec::{run_campaign, CampaignOptions, CampaignResult};
use skrt::report::{campaign_table, distribution, render_distribution, render_table};
use skrt::suite::CampaignSpec;
use xm_campaign::paper_campaign;
use xtratum::hypercall::HypercallId;
use xtratum::vuln::KernelBuild;

fn subset() -> CampaignSpec {
    // The three defective hypercalls plus robust ones — a mix of all
    // outcome kinds, and XM_memory_copy's repeated raw invocations.
    let full = paper_campaign();
    let mut spec = CampaignSpec::new("determinism subset");
    for s in full.suites {
        if matches!(
            s.hypercall,
            HypercallId::ResetSystem
                | HypercallId::SetTimer
                | HypercallId::Multicall
                | HypercallId::ReadSamplingMessage
                | HypercallId::HmSeek
                | HypercallId::MemoryCopy
        ) {
            spec.push(s);
        }
    }
    spec
}

fn fingerprint(result: &CampaignResult) -> Vec<(String, String)> {
    result
        .records
        .iter()
        .map(|r| {
            (
                r.case.display_call(),
                format!(
                    "{:?}/{:?}/{:?}",
                    r.classification,
                    r.observation.first(),
                    r.param_signature
                ),
            )
        })
        .collect()
}

/// The rendered Table III + Fig. 8 for a result — the full deterministic
/// report surface.
fn rendered(spec: &CampaignSpec, result: &CampaignResult) -> String {
    let mut out = render_table(&campaign_table(spec, result));
    out.push_str(&render_distribution(&distribution(spec)));
    out
}

fn opts(threads: usize) -> CampaignOptions {
    CampaignOptions { build: KernelBuild::Legacy, threads, ..Default::default() }
}

#[test]
fn repeated_runs_are_identical() {
    let spec = subset();
    let a = run_campaign(&EagleEye, &spec, &opts(2));
    let b = run_campaign(&EagleEye, &spec, &opts(2));
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

/// Thread counts 1, 4 and 16 yield identical records and byte-identical
/// rendered Table III / Fig. 8 output.
#[test]
fn thread_count_does_not_change_results_or_rendering() {
    let spec = subset();
    let base = run_campaign(&EagleEye, &spec, &opts(1));
    let base_render = rendered(&spec, &base);
    for threads in [4, 16] {
        let other = run_campaign(&EagleEye, &spec, &opts(threads));
        assert_eq!(fingerprint(&base), fingerprint(&other), "divergence at {threads} threads");
        assert_eq!(base_render, rendered(&spec, &other), "render divergence at {threads} threads");
    }
}

/// The snapshot engine and the seed-style fresh-boot path observe the
/// same behaviour: boot state cloning is transparent to every test.
#[test]
fn snapshot_reuse_is_observationally_transparent() {
    let spec = subset();
    let snap = run_campaign(&EagleEye, &spec, &opts(4));
    let fresh = run_campaign(
        &EagleEye,
        &spec,
        &CampaignOptions {
            build: KernelBuild::Legacy,
            threads: 4,
            reuse_snapshot: false,
            ..Default::default()
        },
    );
    assert_eq!(fingerprint(&snap), fingerprint(&fresh));
    // and the metrics prove each path was actually exercised: every test
    // runs on a snapshot rewind after one boot per worker, or on a fresh
    // boot of its own
    assert_eq!(snap.metrics.snapshot_clones, spec.total_tests());
    assert_eq!(snap.metrics.fresh_boots, snap.metrics.threads as u64);
    assert_eq!(fresh.metrics.snapshot_clones, 0);
    assert_eq!(fresh.metrics.fresh_boots, spec.total_tests());
}

#[test]
fn records_preserve_campaign_order() {
    let spec = subset();
    let result = run_campaign(&EagleEye, &spec, &opts(4));
    let expected: Vec<String> = spec.all_cases().iter().map(|c| c.display_call()).collect();
    let got: Vec<String> = result.records.iter().map(|r| r.case.display_call()).collect();
    assert_eq!(expected, got);
}

/// The flight recorder must be observationally transparent: turning it
/// on changes nothing about the campaign's deterministic surface —
/// records and rendered Table III / Fig. 8 are byte-identical — while
/// still capturing a per-test flight log for every test.
#[test]
fn flight_recorder_is_observationally_transparent() {
    let spec = subset();
    for threads in [1usize, 4] {
        let off = run_campaign(&EagleEye, &spec, &opts(threads));
        let on = run_campaign(&EagleEye, &spec, &CampaignOptions { record: true, ..opts(threads) });
        assert_eq!(fingerprint(&off), fingerprint(&on), "recorder divergence at {threads} threads");
        assert_eq!(
            rendered(&spec, &off),
            rendered(&spec, &on),
            "recorder render divergence at {threads} threads"
        );
        assert!(off.flight.is_none(), "no flight log unless requested");
        let flight = on.flight.as_ref().expect("recording run keeps its flight log");
        assert_eq!(flight.tests.len() as u64, spec.total_tests());
        // flights come back in campaign order, and every test carries a
        // real event stream
        assert!(flight.tests.iter().enumerate().all(|(i, t)| t.index == i));
        assert!(flight.tests.iter().all(|t| !t.events.is_empty()));
        // recording also feeds the latency histograms
        assert!(!on.metrics.hc_latency.is_empty());
        assert!(off.metrics.hc_latency.is_empty());
    }
}

// ---------------------------------------------------------------------------
// `campaign sweep` — the full cartesian invocation space
// ---------------------------------------------------------------------------

/// The spec behind `skrt-repro campaign sweep`: every hypercall in the
/// API header crossed with its complete dictionary product.
fn sweep_spec() -> CampaignSpec {
    let api = skrt::apispec::api_header_doc();
    xm_campaign::automatic_campaign(&api, &xm_campaign::paper_dictionary())
        .expect("sweep spec builds from the generated spec docs")
}

/// The sweep campaign is byte-identical across thread counts 1/4/16 and
/// the flight recorder on/off. Unlike the fixed
/// pre-sliced shards of earlier engines, workers now pull and steal
/// index ranges dynamically — so every configuration here also runs a
/// different work-stealing schedule, and the assertion pins that the
/// schedule is invisible to the result surface.
#[test]
fn sweep_campaign_is_deterministic_across_threads_memo_and_recorder() {
    let spec = sweep_spec();
    let base = run_campaign(&EagleEye, &spec, &opts(1));
    let base_fp = fingerprint(&base);
    let base_render = rendered(&spec, &base);
    assert_eq!(base.records.len() as u64, spec.total_tests());
    for threads in [4usize, 16] {
        for record in [true, false] {
            let other =
                run_campaign(&EagleEye, &spec, &CampaignOptions { record, ..opts(threads) });
            assert_eq!(
                base_fp,
                fingerprint(&other),
                "sweep divergence at threads={threads} record={record}"
            );
            assert_eq!(
                base_render,
                rendered(&spec, &other),
                "sweep render divergence at threads={threads} record={record}"
            );
        }
    }
}

/// `--tests N` scaling is deterministic in both directions: below the
/// spec's size it truncates to exactly the first N cases; above it, the
/// extra tests cycle the case list from the start (keeping their
/// original suite and case identities), and the result is still
/// thread-count independent.
#[test]
fn sweep_max_tests_truncates_and_cycles_deterministically() {
    let spec = subset();
    let total = spec.total_tests() as usize;
    let full_fp = fingerprint(&run_campaign(&EagleEye, &spec, &opts(2)));

    let trunc = run_campaign(&EagleEye, &spec, &CampaignOptions { max_tests: Some(97), ..opts(2) });
    assert_eq!(fingerprint(&trunc), full_fp[..97], "truncation must keep the first 97 cases");

    let n = total + 113;
    let scaled = run_campaign(&EagleEye, &spec, &CampaignOptions { max_tests: Some(n), ..opts(1) });
    let scaled_fp = fingerprint(&scaled);
    assert_eq!(scaled_fp.len(), n);
    assert_eq!(scaled.metrics.tests_executed, n as u64);
    assert_eq!(scaled_fp[..total], full_fp[..], "the first lap is the unscaled campaign");
    assert_eq!(scaled_fp[total..], full_fp[..113], "cycled tests repeat from the start");

    let threaded =
        run_campaign(&EagleEye, &spec, &CampaignOptions { max_tests: Some(n), ..opts(16) });
    assert_eq!(scaled_fp, fingerprint(&threaded), "scaled run must be thread-count independent");
}

// ---------------------------------------------------------------------------
// Stateful sequence campaigns
// ---------------------------------------------------------------------------

/// Everything a sequence record asserts about the kernel, as a
/// comparable string: verdict, step attribution, state-diff evidence,
/// per-step outcomes and the minimal reproducer. This is the whole
/// deterministic surface of a sequence campaign.
fn seq_fingerprint(result: &skrt::sequence::SequenceCampaignResult) -> Vec<String> {
    result
        .records
        .iter()
        .map(|r| {
            let minimal = r.minimal.as_ref().map(|m| {
                let steps: Vec<String> = m.steps.iter().map(|s| s.to_string()).collect();
                format!(
                    "{:?}|{:?}|{}|{}|{}|{:?}",
                    steps, m.verdict, m.evals, m.removed_steps, m.shrunk_args, m.verdict.state_diff
                )
            });
            format!(
                "#{} seed={:#x} {:?} exec={} outcomes={:?} minimal={:?}",
                r.spec.index, r.spec.seed, r.verdict, r.steps_executed, r.outcomes, minimal
            )
        })
        .collect()
}

fn seq_run(threads: usize, record: bool) -> xm_campaign::SequenceReport {
    xm_campaign::run_eagleeye_sequences(
        7,
        60,
        6,
        &skrt::sequence::SequenceOptions {
            build: KernelBuild::Legacy,
            threads,
            record,
            ..Default::default()
        },
    )
}

/// Sequence campaigns are byte-identical across thread counts 1/4/16 and
/// with the flight recorder on or off — same seed, same fingerprints,
/// same rendered report.
#[test]
fn sequence_campaign_is_deterministic_across_threads_memo_and_recorder() {
    let base = seq_run(1, false);
    let base_fp = seq_fingerprint(&base.result);
    let base_render = base.render();
    assert!(!base.result.divergences().is_empty(), "subset must exercise the divergence path");
    for threads in [1usize, 4, 16] {
        for record in [true, false] {
            let other = seq_run(threads, record);
            assert_eq!(
                base_fp,
                seq_fingerprint(&other.result),
                "sequence divergence at threads={threads} record={record}"
            );
            assert_eq!(
                base_render,
                other.render(),
                "render divergence at threads={threads} record={record}"
            );
            // The recorder, when on, keeps one flight per sequence, in
            // campaign order; when off there is no flight log.
            match other.result.flight {
                Some(ref flight) => {
                    assert!(record);
                    assert_eq!(flight.tests.len(), other.result.records.len());
                    assert!(flight.tests.iter().enumerate().all(|(i, t)| t.index == i));
                    assert!(flight.tests.iter().all(|t| !t.events.is_empty()));
                }
                None => assert!(!record),
            }
        }
    }
}

/// The JSONL trace's per-test lines are deterministic across thread
/// counts (the trailing metrics line is run-specific by design).
#[test]
fn trace_test_lines_are_thread_count_independent() {
    let spec = subset();
    let dir = std::env::temp_dir();
    let mut lines = Vec::new();
    for threads in [1usize, 8] {
        let path = dir.join(format!("skrt_trace_{threads}.jsonl"));
        let o = CampaignOptions {
            build: KernelBuild::Legacy,
            threads,
            trace_path: Some(path.clone()),
            ..Default::default()
        };
        run_campaign(&EagleEye, &spec, &o);
        let text = std::fs::read_to_string(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        let tests: Vec<String> = text
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"test\""))
            .map(String::from)
            .collect();
        assert_eq!(tests.len() as u64, spec.total_tests());
        lines.push(tests);
    }
    assert_eq!(lines[0], lines[1]);
}
