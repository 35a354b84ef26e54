//! Zero-dependency self-timed benchmark harness.
//!
//! Each bench target (`harness = false`) builds a [`Bench`], registers
//! timed closures with [`Bench::measure`], and calls [`Bench::finish`],
//! which prints a summary table and writes a machine-readable
//! `BENCH_<name>.json` report into the working directory (the package
//! directory, `crates/bench/`, under `cargo bench`) for CI artifact
//! upload.
//!
//! Set `BENCH_QUICK=1` for smoke mode: fewer samples and shorter target
//! sample times, so the whole suite finishes in CI-friendly time while
//! still exercising every measured path.

use std::hint::black_box;
use std::time::Instant;

/// Statistics for one measured closure, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchStat {
    /// Label the closure was registered under.
    pub label: String,
    /// Iterations per timed sample (auto-calibrated).
    pub iters: u64,
    /// Number of timed samples taken.
    pub samples: u64,
    /// Mean nanoseconds per iteration across samples.
    pub mean_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Slowest sample, nanoseconds per iteration.
    pub max_ns: f64,
    /// Optional element count for throughput reporting.
    pub elements: Option<u64>,
}

impl BenchStat {
    /// Elements processed per second of mean iteration time, when an
    /// element count was attached.
    pub fn elements_per_sec(&self) -> Option<f64> {
        self.elements.filter(|_| self.mean_ns > 0.0).map(|e| e as f64 * 1e9 / self.mean_ns)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// A named group of self-timed measurements.
pub struct Bench {
    name: String,
    quick: bool,
    results: Vec<BenchStat>,
    meta: Vec<(String, String)>,
}

impl Bench {
    /// Creates the harness for one bench target. Reads `BENCH_QUICK` from
    /// the environment; CLI arguments (cargo passes `--bench`) are simply
    /// never inspected.
    pub fn new(name: &str) -> Self {
        let quick =
            std::env::var("BENCH_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
        eprintln!("== bench {name}{} ==", if quick { " (quick mode)" } else { "" });
        Bench { name: name.to_string(), quick, results: Vec::new(), meta: Vec::new() }
    }

    /// Attaches a named numeric fact (memo hit rate, derived speedup...)
    /// to the report's `meta` object.
    pub fn note_meta(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), format!("{value:.4}")));
    }

    /// Records what the numbers were measured on: the core count
    /// (`available_parallelism`) and a `host` label naming the CPU model,
    /// so a committed baseline states the hardware it describes. Returns
    /// the core count.
    pub fn note_host(&mut self) -> usize {
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        self.note_meta("available_parallelism", cores as f64);
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| std::env::consts::ARCH.to_string());
        let label = format!("{cpu}, {cores} vCPU").replace('\\', "\\\\").replace('"', "\\\"");
        self.meta.push(("host".to_string(), format!("\"{label}\"")));
        cores
    }

    /// Whether smoke mode is active (`BENCH_QUICK` set).
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Times `f`, auto-calibrating iterations per sample, and records the
    /// statistics under `label`. Returns the recorded stat.
    pub fn measure<T>(&mut self, label: &str, f: impl FnMut() -> T) -> &BenchStat {
        self.measure_elements(label, None, f)
    }

    /// Like [`Bench::measure`] with an element count attached, so the
    /// report can show `elements/sec` throughput.
    pub fn throughput<T>(
        &mut self,
        label: &str,
        elements: u64,
        f: impl FnMut() -> T,
    ) -> &BenchStat {
        self.measure_elements(label, Some(elements), f)
    }

    fn measure_elements<T>(
        &mut self,
        label: &str,
        elements: Option<u64>,
        mut f: impl FnMut() -> T,
    ) -> &BenchStat {
        // Warmup + calibration: aim each sample at a target wall time.
        let t0 = Instant::now();
        black_box(f());
        let once_ns = t0.elapsed().as_nanos().max(1) as f64;
        let (target_ns, samples) = if self.quick { (5e6, 3u64) } else { (5e7, 10u64) };
        let iters = ((target_ns / once_ns) as u64).clamp(1, 10_000_000);

        let mut per_iter = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let min_ns = per_iter.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_ns = per_iter.iter().cloned().fold(0.0f64, f64::max);

        let stat = BenchStat {
            label: label.to_string(),
            iters,
            samples,
            mean_ns,
            min_ns,
            max_ns,
            elements,
        };
        let thr = stat.elements_per_sec().map(|e| format!("  ({e:.0} elem/s)")).unwrap_or_default();
        eprintln!(
            "  {label:<44} mean {:>12}  min {:>12}  ({iters} iters x {samples} samples){thr}",
            fmt_ns(mean_ns),
            fmt_ns(min_ns),
        );
        self.results.push(stat);
        self.results.last().expect("just pushed")
    }

    /// Records pre-collected per-iteration sample times (nanoseconds).
    /// For paired A/B comparisons the bench interleaves its own A and B
    /// runs — so slow machine-load drift hits both sides equally and
    /// cancels out of the ratio — then registers each side here.
    pub fn record(&mut self, label: &str, samples_ns: &[f64], elements: Option<u64>) -> &BenchStat {
        assert!(!samples_ns.is_empty(), "record() needs at least one sample");
        let mean_ns = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        let min_ns = samples_ns.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_ns = samples_ns.iter().cloned().fold(0.0f64, f64::max);
        let stat = BenchStat {
            label: label.to_string(),
            iters: 1,
            samples: samples_ns.len() as u64,
            mean_ns,
            min_ns,
            max_ns,
            elements,
        };
        let thr = stat.elements_per_sec().map(|e| format!("  ({e:.0} elem/s)")).unwrap_or_default();
        eprintln!(
            "  {label:<44} mean {:>12}  min {:>12}  (1 iters x {} samples){thr}",
            fmt_ns(mean_ns),
            fmt_ns(min_ns),
            samples_ns.len(),
        );
        self.results.push(stat);
        self.results.last().expect("just pushed")
    }

    /// Recorded statistics so far.
    pub fn results(&self) -> &[BenchStat] {
        &self.results
    }

    /// Serialises the recorded results as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"bench\":\"{}\",\"quick\":{},\"results\":[",
            self.name, self.quick
        ));
        for (i, s) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                concat!(
                    "{{\"label\":\"{}\",\"iters\":{},\"samples\":{},",
                    "\"mean_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1}"
                ),
                s.label, s.iters, s.samples, s.mean_ns, s.min_ns, s.max_ns
            ));
            if let Some(e) = s.elements {
                out.push_str(&format!(",\"elements\":{e}"));
            }
            out.push('}');
        }
        out.push(']');
        if !self.meta.is_empty() {
            out.push_str(",\"meta\":{");
            for (i, (k, v)) in self.meta.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":{v}"));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Prints the closing summary and writes `BENCH_<name>.json`.
    pub fn finish(self) {
        let path = format!("BENCH_{}.json", self.name);
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => {
                eprintln!("== bench {}: {} results -> {path} ==", self.name, self.results.len())
            }
            Err(e) => eprintln!("== bench {}: failed to write {path}: {e} ==", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_and_json() {
        let mut b = Bench { name: "t".into(), quick: true, results: Vec::new(), meta: Vec::new() };
        let s = b.throughput("spin", 100, || std::hint::black_box(1 + 1)).clone();
        assert!(s.mean_ns > 0.0 && s.min_ns <= s.mean_ns && s.mean_ns <= s.max_ns);
        assert!(s.elements_per_sec().unwrap() > 0.0);
        let json = b.to_json();
        assert!(json.starts_with("{\"bench\":\"t\",\"quick\":true"), "{json}");
        assert!(json.contains("\"label\":\"spin\"") && json.contains("\"elements\":100"), "{json}");
    }

    #[test]
    fn record_precollected_samples() {
        let mut b = Bench { name: "t".into(), quick: true, results: Vec::new(), meta: Vec::new() };
        let s = b.record("paired", &[10.0, 20.0, 30.0], Some(3)).clone();
        assert_eq!((s.mean_ns, s.min_ns, s.max_ns), (20.0, 10.0, 30.0));
        assert_eq!((s.iters, s.samples), (1, 3));
        assert!(b.to_json().contains("\"label\":\"paired\""));
    }

    #[test]
    fn host_meta_is_valid_json() {
        let mut b = Bench { name: "t".into(), quick: true, results: Vec::new(), meta: Vec::new() };
        assert!(b.note_host() >= 1);
        let json = b.to_json();
        assert!(json.contains("\"available_parallelism\":"), "{json}");
        assert!(json.contains(",\"host\":\""), "{json}");
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(1_500.0), "1.500 us");
        assert_eq!(fmt_ns(2_500_000.0), "2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.000 s");
    }
}
