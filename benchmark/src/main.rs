//! `ps2-benchmark` — the repo's layered benchmark (see README.md).
//!
//! ```text
//! ps2-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!     one workload in this process, pinned to one CPU; the last stdout line
//!     is the result object BENCHMARK.json's contract describes
//! ps2-benchmark [all] [--seed N] [--seconds S] [--quick] [--out FILE]
//!     every workload, untraced then traced, each in its own child process
//! ps2-benchmark compare A.json B.json
//!     hold two `all` result files against the end-to-end bounds
//! ```

mod checks;
mod host;
mod layers;
mod probes;
mod spans;
mod suite;
mod workloads;

use std::process::exit;
use std::time::Instant;

use ps2::simnet::{hostprof, HostProfile};
use ps2::tracefile::JsonValue;

use checks::{check, Counts};
use host::Stat;
use layers::{per_layer, request_tail, TracedRun, END_TO_END, PER_LAYER};
use spans::Spans;
use workloads::{run_pass, serve_generator_lag_ns, Pass, Scale, Workload};

/// Where the traced run leaves its span file, relative to the repo root
/// (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";

/// `--name value` pairs plus bare `--quick`.
pub struct Flags {
    pairs: Vec<(String, String)>,
    pub quick: bool,
}

impl Flags {
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut quick = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => quick = true,
                Some(name) => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    pairs.push((name.to_string(), value.clone()));
                }
                None => return Err(format!("unexpected argument '{a}'")),
            }
        }
        Ok(Flags { pairs, quick })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: '{v}'")),
        }
    }
}

/// Default measuring time of one run; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 12;

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => suite::compare(&args[1..]),
        _ if args.iter().any(|a| a == "--workload") => run_one(started, &args),
        Some("all") => suite::run_all(&args[1..]),
        _ => suite::run_all(&args),
    };
    match outcome {
        Ok(code) => exit(code),
        Err(msg) => {
            eprintln!("ps2-benchmark: {msg}");
            exit(2)
        }
    }
}

/// What one invocation was asked to run.
#[derive(Clone, Copy)]
struct Run {
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
}

/// State the passes of one run share: the span recorder, and the ledger —
/// every pass is checked, counted, and must reproduce the first pass's exact
/// numbers bit for bit.
struct Harness {
    run: Run,
    started: Instant,
    spans: Spans,
    reference: Option<Vec<u64>>,
    totals: Counts,
}

type Measured = Vec<(&'static str, &'static str, Stat)>;

/// What set-up leaves behind for the measuring phase.
struct SetUp {
    /// Host seconds of each set-up sample.
    host_s: Stat,
    /// `VmHWM` after the first warm-up pass, before the calibration kernel
    /// has touched any memory of its own.
    peak_rss_mb: f64,
    warm: Pass,
    /// The calibration taken right after the last set-up.
    calibration_s: f64,
}

/// CPU seconds → host seconds: scaled by how much faster or slower than the
/// reference the machine ran the calibration kernel around that time.
fn host_seconds(cpu_s: f64, calibration_s: f64) -> f64 {
    cpu_s * host::CALIBRATION_REFERENCE_S / calibration_s
}

impl Harness {
    /// Run one pass, check it, and hold it to the first pass's exact numbers.
    fn pass(&mut self, observed: bool, what: &str) -> Result<Pass, String> {
        let Run {
            workload,
            seed,
            scale,
            ..
        } = self.run;
        let (pass, _) = self
            .spans
            .scope(what, |sp| run_pass(workload, seed, scale, observed, sp));
        let pass = pass?;
        let counted = check(workload, scale, &pass).map_err(|e| format!("{what}: {e}"))?;
        let fp = pass.fingerprint();
        match &self.reference {
            None => self.reference = Some(fp),
            Some(reference) if *reference != fp => {
                return Err(format!(
                    "{what}: exact metrics differ from the first pass of this seed"
                ));
            }
            Some(_) => {}
        }
        self.totals.attempted += counted.attempted;
        self.totals.failed += counted.failed;
        Ok(pass)
    }

    /// One untraced pass; returns its wall and CPU seconds.
    fn timed_pass(&mut self) -> Result<(f64, f64), String> {
        let (wall0, cpu0) = (Instant::now(), host::process_cpu_s());
        self.pass(false, "measured pass")?;
        Ok((wall0.elapsed().as_secs_f64(), host::process_cpu_s() - cpu0))
    }

    /// Whether the measuring phase, begun at `since`, wants another pass.
    fn wants_more(&self, since: Instant, passes: usize, at_least: usize) -> bool {
        passes < at_least
            || (!self.run.scale.quick && since.elapsed().as_secs_f64() < self.run.seconds)
    }

    /// Set-up = build the inputs, run one untimed warm-up pass, check it. The
    /// first sample counts from process start. It is taken again (up to three
    /// samples, within a quarter of the measuring time) so cheap set-ups
    /// report a median; a 5 s set-up is sampled once.
    fn set_up(&mut self) -> Result<SetUp, String> {
        let mut samples: Vec<f64> = Vec::new();
        let mut peak_rss_mb = 0.0;
        loop {
            let (t0, cpu0) = match samples.is_empty() {
                true => (self.started, 0.0),
                false => (Instant::now(), host::process_cpu_s()),
            };
            let warm = self.pass(false, "warm-up pass")?;
            let cpu_s = host::process_cpu_s() - cpu0;
            if samples.is_empty() {
                peak_rss_mb = host::peak_rss_mb();
            }
            let calibration_s = host::calibrate();
            samples.push(host_seconds(cpu_s, calibration_s));
            let spent = self.started.elapsed().as_secs_f64();
            if self.run.scale.quick
                || samples.len() >= 3
                || spent + t0.elapsed().as_secs_f64() > self.run.seconds / 4.0
            {
                return Ok(SetUp {
                    host_s: Stat::of(&samples),
                    peak_rss_mb,
                    warm,
                    calibration_s,
                });
            }
        }
    }

    /// `--trace 0`: set-up, then whole untraced passes until the time is up,
    /// each scaled by the calibrations on either side of it.
    fn end_to_end(&mut self) -> Result<Measured, String> {
        let setup = self.set_up()?;
        let since = Instant::now();
        let (mut hosts, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
        let mut calibrations = vec![setup.calibration_s];
        while self.wants_more(since, hosts.len(), if self.run.scale.quick { 1 } else { 3 }) {
            let (wall_s, cpu_s) = self.timed_pass()?;
            let before = calibrations[calibrations.len() - 1];
            let after = host::calibrate();
            hosts.push(host_seconds(cpu_s, (before + after) / 2.0));
            walls.push(wall_s);
            cpus.push(cpu_s);
            calibrations.push(after);
        }
        let (tail_ns, tail_q, tail_beyond) = request_tail(self.run.workload, &setup.warm)?;
        match tail_q < 1.0 {
            true => println!(
                "req_tail_us is p{:.1} of the workload's requests ({tail_beyond} samples beyond it)",
                tail_q * 100.0
            ),
            false => println!("req_tail_us is the maximum latency of the workload's requests"),
        }
        print_stat("wall_s (raw, not gated)", "s", &Stat::of(&walls));
        print_stat("cpu_s (raw, not gated)", "s", &Stat::of(&cpus));
        let speeds: Vec<f64> = calibrations
            .iter()
            .map(|c| host::CALIBRATION_REFERENCE_S / c)
            .collect();
        print_stat("machine speed (1 = reference)", "x", &Stat::of(&speeds));
        Ok(END_TO_END
            .iter()
            .map(|(d, _)| {
                let stat = match d.name {
                    "setup_s" => setup.host_s,
                    "host_s" => Stat::of(&hosts),
                    "peak_rss_mb" => Stat::exact(setup.peak_rss_mb),
                    "virtual_s" => Stat::exact(setup.warm.virtual_ns() as f64 / 1e9),
                    "req_tail_us" => Stat::exact(tail_ns / 1e3),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                print_stat(d.name, d.unit, &stat);
                (d.name, d.unit, stat)
            })
            .collect())
    }

    /// One pass with the program's recorders on: trace/reqtrace/timeseries
    /// and the host profiler with allocation counting.
    fn traced_pass(&mut self) -> Result<(Pass, HostProfile, f64), String> {
        hostprof::set_enabled(true);
        hostprof::set_alloc_counting(true);
        let wall0 = Instant::now();
        let pass = self.pass(true, "traced pass");
        let wall_s = wall0.elapsed().as_secs_f64();
        // Analysis stages ran on this thread after the sim's own snapshot.
        hostprof::flush_thread();
        let mut host = hostprof::take_profile(0);
        hostprof::set_enabled(false);
        hostprof::set_alloc_counting(false);
        let pass = pass?;
        for r in &pass.reports {
            if let Some(h) = &r.host {
                host.merge(h);
            }
        }
        Ok((pass, host, wall_s))
    }

    /// `--trace 1`: after the warm-up, untraced and traced passes alternate
    /// (both see the same machine) until the time is up; then the
    /// generator-lag run and the probes.
    fn per_layer(&mut self) -> Result<Measured, String> {
        let Run {
            workload,
            seed,
            scale,
            ..
        } = self.run;
        self.pass(false, "warm-up pass")?;
        let since = Instant::now();
        let (mut walls, mut cpus, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
        let mut last_traced = None;
        while self.wants_more(since, traced_walls.len(), 1) {
            let (wall_s, cpu_s) = self.timed_pass()?;
            walls.push(wall_s);
            cpus.push(cpu_s);
            let (pass, host, wall_s) = self.traced_pass()?;
            traced_walls.push(wall_s);
            last_traced = Some((pass, host));
        }
        let (pass, host) = last_traced.expect("a traced run makes at least one traced pass");
        for r in &pass.rates {
            println!(
                "{} kpps: tail is p{:.1} ({} samples beyond it)",
                r.rate_kpps,
                r.tail_q * 100.0,
                r.tail_samples
            );
        }
        let generator_lag_ns = match workload {
            Workload::ServePullSweep => Some(serve_generator_lag_ns(seed, &mut self.spans)?),
            _ => None,
        };
        let probes = (!scale.quick).then(|| probes::run_all(seed, &mut self.spans));
        let values = per_layer(&TracedRun {
            workload,
            pass: &pass,
            host: &host,
            untraced_wall_s: Stat::of(&walls).median,
            untraced_cpu_s: Stat::of(&cpus).median,
            traced_wall_s: Stat::of(&traced_walls).median,
            generator_lag_ns,
            probes: probes.as_ref(),
        });
        self.write_span_file(&host)?;
        println!("{}", host.render());
        Ok(PER_LAYER
            .iter()
            .map(|d| {
                let stat = Stat::exact(values[d.name]);
                print_stat(d.name, d.unit, &stat);
                (d.name, d.unit, stat)
            })
            .collect())
    }

    /// `benchmark/out/<workload>.spans.jsonl`: the harness's spans, then the
    /// traced pass's host-profile scope table, one JSON object per line.
    fn write_span_file(&self, host: &HostProfile) -> Result<(), String> {
        let name = self.run.workload.name();
        let mut text = self.spans.to_jsonl();
        for s in &host.scopes {
            let row = obj([
                ("hostprof_scope", JsonValue::Str(s.name.into())),
                ("workload", JsonValue::Str(name.into())),
                ("calls", JsonValue::Num(s.calls as f64)),
                ("total_ns", JsonValue::Num(s.total_ns as f64)),
                ("self_ns", JsonValue::Num(s.self_ns as f64)),
                ("allocs", JsonValue::Num(s.allocs as f64)),
                ("alloc_bytes", JsonValue::Num(s.alloc_bytes as f64)),
            ]);
            text.push_str(&row.render());
            text.push('\n');
        }
        let path = format!("{OUT_DIR}/{name}.spans.jsonl");
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("spans written to {path}");
        Ok(())
    }
}

fn print_stat(name: &str, unit: &str, s: &Stat) {
    if s.n > 1 {
        println!(
            "{name:<40} {:>16.6} {unit:<6} (min {:.6}, max {:.6}, n {})",
            s.median, s.min, s.max, s.n
        );
    } else {
        println!("{name:<40} {:>16.6} {unit}", s.median);
    }
}

pub fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn run_one(started: Instant, args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args)?;
    let name = flags.get("workload").ok_or("missing --workload NAME")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{name}' (want {})", names.join(" | "))
    })?;
    let run = Run {
        workload,
        seed: flags.num("seed", 1)?,
        seconds: flags.num("seconds", RUN_SECONDS as f64)?,
        scale: Scale { quick: flags.quick },
    };
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, not '{other}'")),
    };

    // Before the first simulated proc: threads inherit the affinity.
    let (pinned, nproc) = host::pin_to_one_cpu();
    println!(
        "{name} seed {} seconds {} trace {} quick {} pinned {pinned} nproc {nproc}",
        run.seed,
        run.seconds,
        u8::from(traced),
        run.scale.quick
    );

    let mut harness = Harness {
        run,
        started,
        spans: Spans::new(workload.name(), traced),
        reference: None,
        totals: Counts::default(),
    };
    let measured = match traced {
        false => harness.end_to_end(),
        true => harness.per_layer(),
    };
    let (metrics, correct) = match measured {
        Ok(metrics) => (metrics, true),
        Err(msg) => {
            eprintln!("ps2-benchmark: {name}: {msg}");
            (Vec::new(), false)
        }
    };

    let stats = metrics.iter().map(|(name, _, s)| {
        let fields = [
            ("median", s.median),
            ("min", s.min),
            ("max", s.max),
            ("n", s.n as f64),
        ];
        (
            name.to_string(),
            obj(fields.map(|(k, v)| (k, JsonValue::Num(v)))),
        )
    });
    let detail = obj([
        ("workload", JsonValue::Str(name.into())),
        ("seed", JsonValue::Num(run.seed as f64)),
        ("pinned", JsonValue::Bool(pinned)),
        ("nproc", JsonValue::Num(nproc as f64)),
        ("stats", JsonValue::Obj(stats.collect())),
    ]);
    println!("{}", obj([("detail", detail)]).render());
    let values = metrics.iter().map(|(name, unit, s)| {
        let value = obj([
            ("value", JsonValue::Num(s.median)),
            ("unit", JsonValue::Str(unit.to_string())),
        ]);
        (name.to_string(), value)
    });
    let result = obj([
        ("correct", JsonValue::Bool(correct)),
        (
            "attempted",
            JsonValue::Num(harness.totals.attempted.max(1) as f64),
        ),
        ("failed", JsonValue::Num(harness.totals.failed as f64)),
        ("metrics", JsonValue::Obj(values.collect())),
    ]);
    println!("{}", result.render());
    Ok(if correct { 0 } else { 1 })
}
