//! Spans, summary statistics, process memory and the result line.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call at a layer boundary. Times are nanoseconds since the
/// process's span epoch; ids are local to a session.
#[derive(Clone, Debug)]
pub struct Span {
    pub session: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one session (or one serve session), kept in memory.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    session: u64,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, session: u64) -> Self {
        Spans {
            epoch,
            session,
            list: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished call and returns its id.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.list.len();
        let span = Span {
            session: self.session,
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.list.push(span);
        id
    }

    /// Sets the end of an already recorded span.
    pub fn close(&mut self, id: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.list[id].end_ns = end_ns;
    }

    /// Records an interval if present.
    pub fn add_opt(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        interval: Option<(Instant, Instant)>,
    ) -> Option<usize> {
        interval.map(|(s, e)| self.add(name, parent, s, e))
    }
}

/// Writes spans as JSON lines, preceded by the result stamp.
pub fn write_spans(path: &Path, stamp: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{{\"stamp\":{stamp}}}");
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"session\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.session, s.id, s.name, s.start_ns, s.end_ns
        );
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())?;
    file.flush()
}

/// Nearest-rank percentile (`q` in `(0, 1]`); 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[allow(clippy::cast_precision_loss)]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Least-squares slope of `y` against `x`; 0 for fewer than two
/// distinct `x`.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let mx = mean(&points.iter().map(|p| p.0).collect::<Vec<_>>());
    let my = mean(&points.iter().map(|p| p.1).collect::<Vec<_>>());
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    ratio(sxy, sxx)
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/<pid>/status`, in MiB.
pub fn proc_status_mib(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Median host cost of one `Instant::now()` pair, subtracted from
/// sampled call timings.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let start = Instant::now();
            let end = std::hint::black_box(Instant::now());
            #[allow(clippy::cast_precision_loss)]
            {
                (end - start).as_nanos() as f64
            }
        })
        .collect();
    median(&samples)
}

/// Named metric values in output order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result stamp: seed, host parallelism, toolchain, commit and
/// build profile, as one JSON object.
pub fn stamp(workload: &str, seed: u64, trace: bool, workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"nproc\":{nproc},\"workers\":{workers},\"rustc\":{},\"commit\":{},\"profile\":\"{profile}\"}}",
        json_str(workload),
        json_str(&rustc),
        json_str(&commit)
    )
}
