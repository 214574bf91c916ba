//! Statistics, machine and noise records, and the result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The benchmark package directory; generated files live below it, so
/// a run reads and writes only inside its checkout.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Timings are summarized per window: a run is cut into up to
/// [`MAX_WINDOWS`] consecutive windows of at least [`WINDOW_SAMPLES`]
/// samples (so at least 20 lie beyond each window's p90), each window
/// gives its own value, and the result is the 20%-trimmed mean of the
/// values of the windows the host left alone. The machine the benchmark
/// was calibrated on switches between a fast and a slow state every few
/// seconds to minutes (the in-process balance request takes about 520
/// or 780 us) and has bursts of host steal of up to a fifth of its CPU
/// time. A median
/// over windows flips with the share of fast windows in a run, while
/// the trimmed mean moves smoothly with it; windows during which the
/// host stole more than [`STEAL_LIMIT`] of the CPU time measure the
/// host, not the program, and are left out.
const WINDOW_SAMPLES: usize = 200;
const MAX_WINDOWS: usize = 30;
/// Host steal share above which a window is left out.
const STEAL_LIMIT: f64 = 0.02;

/// Sample index ranges of the windows over `n` samples.
fn windows(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let w = (n / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    (0..w).map(move |i| i * n / w..(i + 1) * n / w)
}

/// Mean of `values` without the lowest and the highest fifth.
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 5;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Machine-wide `(all, steal)` jiffies from `/proc/stat`.
fn host_jiffies() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let fields: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            // user nice system idle iowait irq softirq steal ...; guest
            // time is already counted in user.
            Some((fields.iter().take(8).sum(), *fields.get(7).unwrap_or(&0)))
        })
        .unwrap_or((0, 0))
}

/// Host steal over a measured phase, sampled every 50 ms.
#[derive(Default)]
pub struct Steal(Vec<(Instant, u64, u64)>);

impl Steal {
    /// Share of the machine's CPU time the host stole between `from`
    /// and `to`, over the samples that enclose the interval.
    fn share(&self, from: Instant, to: Instant) -> f64 {
        if self.0.len() < 2 {
            return 0.0;
        }
        let a = self.0.iter().rposition(|s| s.0 <= from).unwrap_or(0);
        let b = self
            .0
            .iter()
            .position(|s| s.0 >= to)
            .unwrap_or(self.0.len() - 1)
            .max(a + 1);
        let all = self.0[b].1.saturating_sub(self.0[a].1);
        if all == 0 {
            0.0
        } else {
            self.0[b].2.saturating_sub(self.0[a].2) as f64 / all as f64
        }
    }

    /// Indices of the windows to summarize: those with at most
    /// [`STEAL_LIMIT`] steal, or, when fewer than half qualify, the half
    /// with the least.
    fn quiet(&self, spans: &[(Instant, Instant)]) -> Vec<usize> {
        let shares: Vec<f64> = spans.iter().map(|(a, b)| self.share(*a, *b)).collect();
        let quiet: Vec<usize> = (0..spans.len())
            .filter(|&i| shares[i] <= STEAL_LIMIT)
            .collect();
        if quiet.len() * 2 >= spans.len() {
            return quiet;
        }
        let mut by_steal: Vec<usize> = (0..spans.len()).collect();
        by_steal.sort_by(|&i, &j| shares[i].total_cmp(&shares[j]));
        by_steal.truncate(spans.len().div_ceil(2));
        by_steal
    }
}

/// Samples host steal every 50 ms on a thread of its own until
/// [`StealMonitor::finish`].
pub struct StealMonitor {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<Steal>,
}

impl StealMonitor {
    pub fn start() -> StealMonitor {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut series = Vec::new();
            loop {
                let (all, steal) = host_jiffies();
                series.push((Instant::now(), all, steal));
                if flag.load(std::sync::atomic::Ordering::SeqCst) {
                    return Steal(series);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        StealMonitor { stop, handle }
    }

    pub fn finish(self) -> Steal {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.handle
            .join()
            .expect("the steal sampler does not panic")
    }
}

/// Latency samples of one request kind, in microseconds, in the order
/// the requests completed, each with its completion time.
#[derive(Default)]
pub struct Latencies {
    at: Vec<Instant>,
    us: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.at.push(Instant::now());
        self.us.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// `(p50, p90)`, each the trimmed mean of its per-window values over
    /// the windows `steal` leaves in; the benchmark's tail percentile is
    /// p90. Also the share of windows kept.
    pub fn summary(&self, steal: &Steal) -> (f64, f64, f64) {
        let ranges: Vec<_> = windows(self.us.len()).collect();
        let spans: Vec<_> = ranges
            .iter()
            .map(|r| (self.at[r.start], self.at[r.end - 1]))
            .collect();
        let kept = steal.quiet(&spans);
        let (mut p50, mut p90) = (Vec::new(), Vec::new());
        for &w in &kept {
            let mut v = self.us[ranges[w].clone()].to_vec();
            v.sort_by(f64::total_cmp);
            p50.push(percentile(&v, 0.5));
            p90.push(percentile(&v, 0.9));
        }
        (
            trimmed_mean(&p50),
            trimmed_mean(&p90),
            kept.len() as f64 / ranges.len() as f64,
        )
    }

    /// `(p50, p90)` over every window.
    pub fn p50_p90(&self) -> (f64, f64) {
        let (p50, p90, _) = self.summary(&Steal::default());
        (p50, p90)
    }
}

/// Completion times of served operations, in completion order.
pub struct Completions {
    start: Instant,
    at: Vec<Instant>,
}

impl Default for Completions {
    fn default() -> Completions {
        Completions::starting(Instant::now())
    }
}

impl Completions {
    pub fn starting(start: Instant) -> Completions {
        Completions {
            start,
            at: Vec::new(),
        }
    }

    pub fn push(&mut self) {
        self.at.push(Instant::now());
    }

    /// Completions per second: each window's count over the time since
    /// the previous window ended, and the trimmed mean of those over the
    /// windows `steal` leaves in.
    pub fn rate(&self, steal: &Steal) -> f64 {
        let ranges: Vec<_> = windows(self.at.len()).filter(|r| !r.is_empty()).collect();
        if ranges.is_empty() {
            return 0.0;
        }
        let spans: Vec<_> = ranges
            .iter()
            .map(|r| {
                let from = if r.start == 0 {
                    self.start
                } else {
                    self.at[r.start - 1]
                };
                (from, self.at[r.end - 1])
            })
            .collect();
        let rates: Vec<f64> = steal
            .quiet(&spans)
            .into_iter()
            .map(|w| ranges[w].len() as f64 / (spans[w].1 - spans[w].0).as_secs_f64())
            .collect();
        trimmed_mean(&rates)
    }
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// p50 and p90 of one kind under `<kind>_p50_us` / `<kind>_p90_us`,
    /// with the sample count and the share of windows kept.
    pub fn latency(&mut self, kind: &str, samples: &Latencies, steal: &Steal) {
        let (p50, p90, kept) = samples.summary(steal);
        self.set(&format!("{kind}_p50_us"), p50, "us");
        self.set(&format!("{kind}_p90_us"), p90, "us");
        self.set(&format!("{kind}_samples"), samples.len() as f64, "count");
        self.set(&format!("{kind}_quiet_windows"), kept, "ratio");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// The metrics listed in `names`, in that order, as a JSON object.
    pub fn json_of(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let (_, value, unit) = self
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }

    /// Every metric, as a JSON object.
    pub fn json_all(&self) -> String {
        let names: Vec<&str> = self.0.iter().map(|(n, _, _)| n.as_str()).collect();
        self.json_of(&names)
    }
}

/// A JSON number with every digit Rust prints for the value.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ------------------------------------------------------------- machine

/// What the result was measured on and with.
pub struct Machine {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

impl Machine {
    pub fn detect() -> Machine {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Machine {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu,
            rustc: command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: commit(),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }
}

/// Runs a command to completion and returns its trimmed stdout.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The git commit when the checkout is a repository; otherwise a digest
/// of the program sources (`crates/`, `shims/`), which names the code
/// as exactly.
fn commit() -> String {
    if let Some(head) = command_output("git", &["rev-parse", "HEAD"]) {
        return head;
    }
    let root = package_dir().parent().unwrap_or(package_dir());
    let mut files = Vec::new();
    for top in ["crates", "shims"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("source-fnv64:{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_files(&p, out);
            }
        } else {
            out.push(p);
        }
    }
}

// --------------------------------------------------------------- noise

/// Host and process CPU counters at one instant.
pub struct Sample {
    wall: Instant,
    /// `(all jiffies, steal jiffies)` of the machine.
    host: (u64, u64),
    /// User + system jiffies of this process.
    process: u64,
}

/// Jiffies per second of the `/proc` interface (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

impl Sample {
    pub fn now() -> Sample {
        let host = host_jiffies();
        let process = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                // Fields after the parenthesized command name.
                let rest = &s[s.rfind(')')? + 2..];
                let f: Vec<&str> = rest.split_whitespace().collect();
                Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
            })
            .unwrap_or(0);
        Sample {
            wall: Instant::now(),
            host,
            process,
        }
    }

    /// `(wall s, process CPU s, host steal share)` since `self`.
    pub fn since(&self) -> (f64, f64, f64) {
        let now = Sample::now();
        let all = now.host.0.saturating_sub(self.host.0);
        let steal = now.host.1.saturating_sub(self.host.1);
        (
            now.wall.duration_since(self.wall).as_secs_f64(),
            now.process.saturating_sub(self.process) as f64 / USER_HZ,
            if all == 0 {
                0.0
            } else {
                steal as f64 / all as f64
            },
        )
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
