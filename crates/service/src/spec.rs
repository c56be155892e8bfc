//! JSON specs and codecs for the service surface.
//!
//! Two distinct encodings live here:
//!
//! * **Creation specs** ([`SessionSpec`], [`SpeedupSpec`]) — human-authored
//!   JSON with plain decimal numbers, validated field by field so malformed
//!   input yields a 400 instead of a library panic.
//! * **Snapshot documents** ([`snapshot_to_json`] / [`snapshot_from_json`])
//!   — machine round-trip encoding of a
//!   [`SessionSnapshot`]. Every
//!   simulation-state float travels as its IEEE-754 bit pattern
//!   ([`Json::bits`]), because the restore contract is a byte-identical
//!   replay and shortest-decimal printing cannot represent `NaN` queue
//!   absences or guarantee bit-exactness.
//!
//! The snapshot document carries the [`SpeedupSpec`] alongside the session
//! state: the speedup model is an opaque trait object the online crate
//! cannot serialize, so the service restricts sessions to the describable
//! model family and re-instantiates it on restore.

use std::sync::Arc;

use redistrib_core::{FaultConfig, Heuristic, PackStateSnapshot, TaskRuntime};
use redistrib_model::{
    Amdahl, JobSpec, PaperModel, PerfectlyParallel, Platform, PowerLaw, SpeedupModel, TaskSpec,
};
use redistrib_online::{
    OnlineConfig, OnlineStrategy, PackPartitioner, PackReport, PackSetSnapshot, PackSnapshot,
    PackStaging, Scheduler, SessionSnapshot,
};
use redistrib_sim::dist::FaultLaw;
use redistrib_sim::trace::TraceEvent;

use crate::json::{obj, Json};

/// A service-level failure: HTTP status plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Problem description (returned as `{"error": ...}`).
    pub message: String,
    /// Seconds the client should wait before retrying, emitted as a
    /// `Retry-After` header (set on load-shedding 503s).
    pub retry_after: Option<u64>,
}

impl ApiError {
    /// An error with an arbitrary status and message.
    #[must_use]
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        Self { status, message: message.into(), retry_after: None }
    }

    /// 400 with the given message.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, message)
    }

    /// 404 with the given message.
    #[must_use]
    pub fn not_found(message: impl Into<String>) -> Self {
        Self::new(404, message)
    }

    /// 409 with the given message.
    #[must_use]
    pub fn conflict(message: impl Into<String>) -> Self {
        Self::new(409, message)
    }

    /// 503 with a `Retry-After` hint — the load-shedding answer.
    #[must_use]
    pub fn unavailable(message: impl Into<String>, retry_after_secs: u64) -> Self {
        Self { status: 503, message: message.into(), retry_after: Some(retry_after_secs) }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for ApiError {}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ApiError> {
    v.get(key).ok_or_else(|| ApiError::bad_request(format!("missing field '{key}'")))
}

fn finite(x: f64, what: &str) -> Result<f64, ApiError> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(ApiError::bad_request(format!("{what} must be finite")))
    }
}

fn num(v: &Json, what: &str) -> Result<f64, ApiError> {
    v.as_f64().ok_or_else(|| ApiError::bad_request(format!("{what} must be a number")))
}

fn bits_f64(v: &Json, what: &str) -> Result<f64, ApiError> {
    v.f64_bits()
        .ok_or_else(|| ApiError::bad_request(format!("{what} must be an f64 bit pattern")))
}

fn uint(v: &Json, what: &str) -> Result<u64, ApiError> {
    v.as_u64()
        .ok_or_else(|| ApiError::bad_request(format!("{what} must be an unsigned integer")))
}

fn index(v: &Json, what: &str) -> Result<usize, ApiError> {
    v.as_usize().ok_or_else(|| ApiError::bad_request(format!("{what} must be an index")))
}

fn boolean(v: &Json, what: &str) -> Result<bool, ApiError> {
    v.as_bool().ok_or_else(|| ApiError::bad_request(format!("{what} must be a boolean")))
}

// ---------------------------------------------------------------------
// Speedup models.
// ---------------------------------------------------------------------

/// Serializable description of a speedup model — the subset of
/// [`SpeedupModel`] implementations the service can name, instantiate and
/// embed in snapshot documents.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeedupSpec {
    /// The paper's communication-penalized power-law profile (default).
    Paper,
    /// Amdahl's law with the given sequential fraction.
    Amdahl {
        /// Sequential fraction in `[0, 1)`.
        seq: f64,
    },
    /// Ideal linear speedup.
    Perfect,
    /// Pure power law `j^exponent`.
    PowerLaw {
        /// Exponent in `(0, 1]`.
        exponent: f64,
    },
}

impl SpeedupSpec {
    /// Instantiates the model.
    #[must_use]
    pub fn build(&self) -> Arc<dyn SpeedupModel> {
        match *self {
            SpeedupSpec::Paper => Arc::new(PaperModel::default()),
            SpeedupSpec::Amdahl { seq } => Arc::new(Amdahl::new(seq)),
            SpeedupSpec::Perfect => Arc::new(PerfectlyParallel),
            SpeedupSpec::PowerLaw { exponent } => Arc::new(PowerLaw::new(exponent)),
        }
    }

    /// Encodes the spec.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match *self {
            SpeedupSpec::Paper => obj(vec![("model", Json::Str("paper".into()))]),
            SpeedupSpec::Amdahl { seq } => {
                obj(vec![("model", Json::Str("amdahl".into())), ("seq", Json::Num(seq))])
            }
            SpeedupSpec::Perfect => obj(vec![("model", Json::Str("perfect".into()))]),
            SpeedupSpec::PowerLaw { exponent } => obj(vec![
                ("model", Json::Str("power_law".into())),
                ("exponent", Json::Num(exponent)),
            ]),
        }
    }

    /// Parses a spec; `null`/absent means the paper default.
    ///
    /// # Errors
    /// [`ApiError`] (400) on unknown models or out-of-range parameters.
    pub fn from_json(v: Option<&Json>) -> Result<Self, ApiError> {
        let Some(v) = v.filter(|v| !v.is_null()) else {
            return Ok(SpeedupSpec::Paper);
        };
        let model = field(v, "model")?
            .as_str()
            .ok_or_else(|| ApiError::bad_request("speedup 'model' must be a string"))?;
        match model {
            "paper" => Ok(SpeedupSpec::Paper),
            "perfect" => Ok(SpeedupSpec::Perfect),
            "amdahl" => {
                let seq = finite(num(field(v, "seq")?, "amdahl 'seq'")?, "amdahl 'seq'")?;
                if !(0.0..1.0).contains(&seq) {
                    return Err(ApiError::bad_request("amdahl 'seq' must be in [0, 1)"));
                }
                Ok(SpeedupSpec::Amdahl { seq })
            }
            "power_law" => {
                let exponent = finite(
                    num(field(v, "exponent")?, "power_law 'exponent'")?,
                    "power_law 'exponent'",
                )?;
                if !(exponent > 0.0 && exponent <= 1.0) {
                    return Err(ApiError::bad_request(
                        "power_law 'exponent' must be in (0, 1]",
                    ));
                }
                Ok(SpeedupSpec::PowerLaw { exponent })
            }
            other => Err(ApiError::bad_request(format!("unknown speedup model '{other}'"))),
        }
    }
}

// ---------------------------------------------------------------------
// Creation spec.
// ---------------------------------------------------------------------

/// Parses a heuristic by its paper-legend name (the strings returned by
/// [`Heuristic::name`]).
///
/// # Errors
/// [`ApiError`] (400) on unknown names.
pub fn heuristic_from_name(name: &str) -> Result<Heuristic, ApiError> {
    const ALL: [Heuristic; 8] = [
        Heuristic::NoRedistribution,
        Heuristic::IteratedGreedyEndGreedy,
        Heuristic::IteratedGreedyEndLocal,
        Heuristic::ShortestTasksFirstEndGreedy,
        Heuristic::ShortestTasksFirstEndLocal,
        Heuristic::EndLocalOnly,
        Heuristic::EndGreedyOnly,
        Heuristic::WarmGreedy,
    ];
    ALL.into_iter().find(|h| h.name() == name).ok_or_else(|| {
        ApiError::bad_request(format!(
            "unknown heuristic '{name}' (use a paper-legend name like 'IteratedGreedy-EndLocal')"
        ))
    })
}

fn law_to_json(law: FaultLaw, exact: bool) -> Json {
    let f = |x: f64| if exact { Json::bits(x) } else { Json::Num(x) };
    match law {
        FaultLaw::Exponential { mtbf } => {
            obj(vec![("kind", Json::Str("exponential".into())), ("mtbf", f(mtbf))])
        }
        FaultLaw::Weibull { shape, mtbf } => obj(vec![
            ("kind", Json::Str("weibull".into())),
            ("shape", f(shape)),
            ("mtbf", f(mtbf)),
        ]),
        FaultLaw::LogNormal { mtbf, sigma } => obj(vec![
            ("kind", Json::Str("lognormal".into())),
            ("mtbf", f(mtbf)),
            ("sigma", f(sigma)),
        ]),
    }
}

fn law_from_json(v: &Json, exact: bool) -> Result<FaultLaw, ApiError> {
    let dec = |v: &Json, what: &str| -> Result<f64, ApiError> {
        let x = if exact { bits_f64(v, what)? } else { finite(num(v, what)?, what)? };
        if !exact && x <= 0.0 {
            return Err(ApiError::bad_request(format!("{what} must be positive")));
        }
        Ok(x)
    };
    let kind = field(v, "kind")?
        .as_str()
        .ok_or_else(|| ApiError::bad_request("fault law 'kind' must be a string"))?;
    match kind {
        "exponential" => {
            Ok(FaultLaw::Exponential { mtbf: dec(field(v, "mtbf")?, "fault mtbf")? })
        }
        "weibull" => Ok(FaultLaw::Weibull {
            shape: dec(field(v, "shape")?, "weibull shape")?,
            mtbf: dec(field(v, "mtbf")?, "fault mtbf")?,
        }),
        "lognormal" => Ok(FaultLaw::LogNormal {
            mtbf: dec(field(v, "mtbf")?, "fault mtbf")?,
            sigma: dec(field(v, "sigma")?, "lognormal sigma")?,
        }),
        other => Err(ApiError::bad_request(format!("unknown fault law '{other}'"))),
    }
}

fn staging_from_json(v: Option<&Json>) -> Result<PackStaging, ApiError> {
    let Some(v) = v.filter(|v| !v.is_null()) else {
        return Ok(PackStaging::FlatFifo);
    };
    if v.as_str() == Some("flat") {
        return Ok(PackStaging::FlatFifo);
    }
    let mode = field(v, "mode")?
        .as_str()
        .ok_or_else(|| ApiError::bad_request("staging 'mode' must be a string"))?;
    match mode {
        "flat" => Ok(PackStaging::FlatFifo),
        "oversubscribed" => {
            let partitioner = match v.get("partitioner").and_then(Json::as_str) {
                None | Some("capacity") => PackPartitioner::CapacityChunks,
                Some("lpt") => PackPartitioner::LptBalanced,
                Some(other) => {
                    return Err(ApiError::bad_request(format!(
                        "unknown partitioner '{other}' (use 'capacity' or 'lpt')"
                    )))
                }
            };
            Ok(PackStaging::Oversubscribed { partitioner })
        }
        other => Err(ApiError::bad_request(format!("unknown staging mode '{other}'"))),
    }
}

fn partitioner_name(p: PackPartitioner) -> &'static str {
    match p {
        PackPartitioner::CapacityChunks => "capacity",
        PackPartitioner::LptBalanced => "lpt",
    }
}

/// Parses one job from a creation spec (plain numbers, validated).
///
/// # Errors
/// [`ApiError`] (400) on out-of-range sizes or releases.
pub fn job_from_json(v: &Json) -> Result<JobSpec, ApiError> {
    let size = finite(num(field(v, "size")?, "job 'size'")?, "job 'size'")?;
    if size <= 1.0 {
        return Err(ApiError::bad_request("job 'size' must exceed 1"));
    }
    let ckpt_unit = match v.get("ckpt_unit").filter(|v| !v.is_null()) {
        Some(c) => {
            let c = finite(num(c, "job 'ckpt_unit'")?, "job 'ckpt_unit'")?;
            if c < 0.0 {
                return Err(ApiError::bad_request("job 'ckpt_unit' must be non-negative"));
            }
            c
        }
        None => 1.0,
    };
    let release = match v.get("release").filter(|v| !v.is_null()) {
        Some(r) => {
            let r = finite(num(r, "job 'release'")?, "job 'release'")?;
            if r < 0.0 {
                return Err(ApiError::bad_request("job 'release' must be non-negative"));
            }
            r
        }
        None => 0.0,
    };
    Ok(JobSpec { task: TaskSpec { size, ckpt_unit }, release })
}

/// A parsed session-creation request: everything a
/// [`Scheduler`] needs, plus the initial jobs.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The platform to simulate.
    pub platform: Platform,
    /// Speedup model shared by all jobs.
    pub speedup: SpeedupSpec,
    /// Resizing strategy.
    pub strategy: OnlineStrategy,
    /// Engine configuration.
    pub config: OnlineConfig,
    /// Admission staging mode.
    pub staging: PackStaging,
    /// Initial job stream (at least one job).
    pub jobs: Vec<JobSpec>,
}

impl SessionSpec {
    /// Parses a creation request.
    ///
    /// # Errors
    /// [`ApiError`] (400) describing the first invalid field.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        // Reject unknown keys outright: a typoed or misplaced option
        // (say, nesting everything under "config") would otherwise be
        // silently ignored and the session would run misconfigured.
        const KNOWN: [&str; 8] = [
            "platform",
            "speedup",
            "strategy",
            "faults",
            "record_trace",
            "max_events",
            "staging",
            "jobs",
        ];
        if let Json::Obj(fields) = v {
            if let Some((k, _)) = fields.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
                return Err(ApiError::bad_request(format!("unknown session spec field '{k}'")));
            }
        }

        // Platform: {"procs": N, "mtbf": s?, "downtime": s?}.
        let pv = field(v, "platform")?;
        let procs = field(pv, "procs")?
            .as_u32()
            .ok_or_else(|| ApiError::bad_request("platform 'procs' must be an integer"))?;
        if procs < 2 {
            return Err(ApiError::bad_request("platform needs at least 2 processors"));
        }
        let mut platform = Platform::new(procs);
        if let Some(m) = pv.get("mtbf").filter(|v| !v.is_null()) {
            let m = finite(num(m, "platform 'mtbf'")?, "platform 'mtbf'")?;
            if m <= 0.0 {
                return Err(ApiError::bad_request("platform 'mtbf' must be positive"));
            }
            platform.proc_mtbf = m;
        }
        if let Some(d) = pv.get("downtime").filter(|v| !v.is_null()) {
            let d = finite(num(d, "platform 'downtime'")?, "platform 'downtime'")?;
            if d < 0.0 {
                return Err(ApiError::bad_request("platform 'downtime' must be non-negative"));
            }
            platform.downtime = d;
        }

        let speedup = SpeedupSpec::from_json(v.get("speedup"))?;

        // Strategy: {"heuristic": name, "rebalance_on_arrival": bool} or a
        // bare heuristic-name string (rebalance defaults to true except for
        // NoRedistribution).
        let strategy = match v.get("strategy").filter(|v| !v.is_null()) {
            None => OnlineStrategy::no_resize(),
            Some(Json::Str(name)) => {
                let heuristic = heuristic_from_name(name)?;
                if heuristic == Heuristic::NoRedistribution {
                    OnlineStrategy::no_resize()
                } else {
                    OnlineStrategy::resizing(heuristic)
                }
            }
            Some(sv) => {
                let heuristic =
                    heuristic_from_name(field(sv, "heuristic")?.as_str().ok_or_else(
                        || ApiError::bad_request("'heuristic' must be a string"),
                    )?)?;
                let rebalance = match sv.get("rebalance_on_arrival") {
                    Some(b) => boolean(b, "'rebalance_on_arrival'")?,
                    None => heuristic != Heuristic::NoRedistribution,
                };
                OnlineStrategy { heuristic, rebalance_on_arrival: rebalance }
            }
        };

        // Faults: null | {"seed": u64, "law": {...}} (law defaults to
        // exponential at the platform MTBF).
        let faults = match v.get("faults").filter(|v| !v.is_null()) {
            None => None,
            Some(fv) => {
                let seed = uint(field(fv, "seed")?, "fault 'seed'")?;
                let law = match fv.get("law").filter(|v| !v.is_null()) {
                    Some(lv) => law_from_json(lv, false)?,
                    None => FaultLaw::Exponential { mtbf: platform.proc_mtbf },
                };
                Some(FaultConfig { seed, law })
            }
        };
        let mut config = OnlineConfig { faults, ..OnlineConfig::default() };
        if let Some(b) = v.get("record_trace") {
            config.record_trace = boolean(b, "'record_trace'")?;
        }
        if let Some(m) = v.get("max_events").filter(|v| !v.is_null()) {
            config.max_events = uint(m, "'max_events'")?;
        }

        let staging = staging_from_json(v.get("staging"))?;

        let jobs = field(v, "jobs")?
            .as_arr()
            .ok_or_else(|| ApiError::bad_request("'jobs' must be an array"))?
            .iter()
            .map(job_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if jobs.is_empty() {
            return Err(ApiError::bad_request("'jobs' must contain at least one job"));
        }

        Ok(Self { platform, speedup, strategy, config, staging, jobs })
    }

    /// Builds the configured scheduler (without a job stream).
    #[must_use]
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::on(self.platform)
            .speedup(self.speedup.build())
            .strategy(self.strategy)
            .config(self.config)
            .staging(self.staging)
    }
}

// ---------------------------------------------------------------------
// Snapshot documents.
// ---------------------------------------------------------------------

/// Version tag of the snapshot document format written by
/// [`snapshot_to_json`]. [`snapshot_from_json`] also reads version 1,
/// which differs only in fields version 2 dropped: the pack state's
/// `floors`/`floors_ready` (ignored — nothing reads them) and the config's
/// `reference_policies` (accepted only when `false`).
pub const SNAPSHOT_VERSION: u64 = 2;

fn runtime_to_json(rt: &TaskRuntime) -> Json {
    Json::Arr(vec![
        Json::bits(rt.alpha),
        Json::bits(rt.t_last_r),
        Json::bits(rt.t_u),
        Json::Bool(rt.done),
        Json::bits(rt.completion_time),
    ])
}

fn runtime_from_json(v: &Json) -> Result<TaskRuntime, ApiError> {
    let a = v.as_arr().filter(|a| a.len() == 5).ok_or_else(|| {
        ApiError::bad_request("runtime record must be [alpha, t_last_r, t_u, done, completion]")
    })?;
    Ok(TaskRuntime {
        alpha: bits_f64(&a[0], "runtime alpha")?,
        t_last_r: bits_f64(&a[1], "runtime t_last_r")?,
        t_u: bits_f64(&a[2], "runtime t_u")?,
        done: boolean(&a[3], "runtime done")?,
        completion_time: bits_f64(&a[4], "runtime completion")?,
    })
}

fn f64s_to_json(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::bits(x)).collect())
}

fn f64s_from_json(v: &Json, what: &str) -> Result<Vec<f64>, ApiError> {
    v.as_arr()
        .ok_or_else(|| ApiError::bad_request(format!("{what} must be an array")))?
        .iter()
        .map(|e| bits_f64(e, what))
        .collect()
}

fn indices_to_json(xs: &[usize]) -> Json {
    Json::Arr(xs.iter().map(|&i| Json::Int(i as i128)).collect())
}

fn indices_from_json(v: &Json, what: &str) -> Result<Vec<usize>, ApiError> {
    v.as_arr()
        .ok_or_else(|| ApiError::bad_request(format!("{what} must be an array")))?
        .iter()
        .map(|e| index(e, what))
        .collect()
}

fn state_to_json(s: &PackStateSnapshot) -> Json {
    obj(vec![
        ("p", Json::Int(i128::from(s.p))),
        ("runtimes", Json::Arr(s.runtimes.iter().map(runtime_to_json).collect())),
        (
            "task_procs",
            Json::Arr(
                s.task_procs
                    .iter()
                    .map(|procs| {
                        Json::Arr(procs.iter().map(|&k| Json::Int(i128::from(k))).collect())
                    })
                    .collect(),
            ),
        ),
        ("sigma_hi", Json::Int(i128::from(s.sigma_hi))),
        ("ends", f64s_to_json(&s.ends)),
        ("tails", f64s_to_json(&s.tails)),
    ])
}

fn state_from_json(v: &Json) -> Result<PackStateSnapshot, ApiError> {
    let runtimes = field(v, "runtimes")?
        .as_arr()
        .ok_or_else(|| ApiError::bad_request("'runtimes' must be an array"))?
        .iter()
        .map(runtime_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let task_procs = field(v, "task_procs")?
        .as_arr()
        .ok_or_else(|| ApiError::bad_request("'task_procs' must be an array"))?
        .iter()
        .map(|procs| {
            procs
                .as_arr()
                .ok_or_else(|| ApiError::bad_request("'task_procs' entries must be arrays"))?
                .iter()
                .map(|k| {
                    k.as_u32()
                        .ok_or_else(|| ApiError::bad_request("processor ids are integers"))
                })
                .collect::<Result<Vec<u32>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PackStateSnapshot {
        p: field(v, "p")?
            .as_u32()
            .ok_or_else(|| ApiError::bad_request("state 'p' must be an integer"))?,
        runtimes,
        task_procs,
        sigma_hi: field(v, "sigma_hi")?
            .as_u32()
            .ok_or_else(|| ApiError::bad_request("'sigma_hi' must be an integer"))?,
        ends: f64s_from_json(field(v, "ends")?, "'ends'")?,
        tails: f64s_from_json(field(v, "tails")?, "'tails'")?,
    })
}

/// Encodes one trace event. `exact` selects bit-pattern floats (snapshot
/// documents) over plain decimal (human-facing trace pages).
#[must_use]
pub fn trace_event_to_json(e: &TraceEvent, exact: bool) -> Json {
    let f = |x: f64| if exact { Json::bits(x) } else { Json::Num(x) };
    let idx = |i: usize| Json::Int(i as i128);
    match *e {
        TraceEvent::Fault { time, proc, task } => obj(vec![
            ("kind", Json::Str("fault".into())),
            ("time", f(time)),
            ("proc", Json::Int(i128::from(proc))),
            ("task", idx(task)),
        ]),
        TraceEvent::FaultDiscarded { time, proc } => obj(vec![
            ("kind", Json::Str("fault_discarded".into())),
            ("time", f(time)),
            ("proc", Json::Int(i128::from(proc))),
        ]),
        TraceEvent::TaskEnd { time, task } => obj(vec![
            ("kind", Json::Str("task_end".into())),
            ("time", f(time)),
            ("task", idx(task)),
        ]),
        TraceEvent::Redistribution { time, task, from, to, cost } => obj(vec![
            ("kind", Json::Str("redistribution".into())),
            ("time", f(time)),
            ("task", idx(task)),
            ("from", Json::Int(i128::from(from))),
            ("to", Json::Int(i128::from(to))),
            ("cost", f(cost)),
        ]),
        TraceEvent::MakespanEstimate { time, makespan, alloc_stddev } => obj(vec![
            ("kind", Json::Str("makespan".into())),
            ("time", f(time)),
            ("makespan", f(makespan)),
            ("alloc_stddev", f(alloc_stddev)),
        ]),
        TraceEvent::JobArrival { time, job } => obj(vec![
            ("kind", Json::Str("job_arrival".into())),
            ("time", f(time)),
            ("job", idx(job)),
        ]),
        TraceEvent::JobStart { time, job, alloc } => obj(vec![
            ("kind", Json::Str("job_start".into())),
            ("time", f(time)),
            ("job", idx(job)),
            ("alloc", Json::Int(i128::from(alloc))),
        ]),
        TraceEvent::JobQueued { time, job } => obj(vec![
            ("kind", Json::Str("job_queued".into())),
            ("time", f(time)),
            ("job", idx(job)),
        ]),
        TraceEvent::PackStart { time, pack, jobs } => obj(vec![
            ("kind", Json::Str("pack_start".into())),
            ("time", f(time)),
            ("pack", idx(pack)),
            ("jobs", Json::Int(i128::from(jobs))),
        ]),
    }
}

fn trace_event_from_json(v: &Json) -> Result<TraceEvent, ApiError> {
    let kind = field(v, "kind")?
        .as_str()
        .ok_or_else(|| ApiError::bad_request("trace 'kind' must be a string"))?;
    let time = bits_f64(field(v, "time")?, "trace 'time'")?;
    let idx = |key: &str| -> Result<usize, ApiError> { index(field(v, key)?, "trace index") };
    let u32f = |key: &str| -> Result<u32, ApiError> {
        field(v, key)?
            .as_u32()
            .ok_or_else(|| ApiError::bad_request("trace field not an integer"))
    };
    Ok(match kind {
        "fault" => TraceEvent::Fault { time, proc: u32f("proc")?, task: idx("task")? },
        "fault_discarded" => TraceEvent::FaultDiscarded { time, proc: u32f("proc")? },
        "task_end" => TraceEvent::TaskEnd { time, task: idx("task")? },
        "redistribution" => TraceEvent::Redistribution {
            time,
            task: idx("task")?,
            from: u32f("from")?,
            to: u32f("to")?,
            cost: bits_f64(field(v, "cost")?, "trace 'cost'")?,
        },
        "makespan" => TraceEvent::MakespanEstimate {
            time,
            makespan: bits_f64(field(v, "makespan")?, "trace 'makespan'")?,
            alloc_stddev: bits_f64(field(v, "alloc_stddev")?, "trace 'alloc_stddev'")?,
        },
        "job_arrival" => TraceEvent::JobArrival { time, job: idx("job")? },
        "job_start" => TraceEvent::JobStart { time, job: idx("job")?, alloc: u32f("alloc")? },
        "job_queued" => TraceEvent::JobQueued { time, job: idx("job")? },
        "pack_start" => TraceEvent::PackStart { time, pack: idx("pack")?, jobs: u32f("jobs")? },
        other => return Err(ApiError::bad_request(format!("unknown trace kind '{other}'"))),
    })
}

fn pack_to_json(p: &PackSnapshot) -> Json {
    obj(vec![
        ("id", Json::Int(p.id as i128)),
        ("members", indices_to_json(&p.members)),
        ("remaining", Json::Int(p.remaining as i128)),
        ("opened_at", Json::bits(p.opened_at)),
    ])
}

fn pack_from_json(v: &Json) -> Result<PackSnapshot, ApiError> {
    Ok(PackSnapshot {
        id: index(field(v, "id")?, "pack 'id'")?,
        members: indices_from_json(field(v, "members")?, "pack 'members'")?,
        remaining: index(field(v, "remaining")?, "pack 'remaining'")?,
        opened_at: bits_f64(field(v, "opened_at")?, "pack 'opened_at'")?,
    })
}

fn staging_snapshot_to_json(s: &PackSetSnapshot) -> Json {
    obj(vec![
        ("partitioner", Json::Str(partitioner_name(s.partitioner).into())),
        ("backlog", indices_to_json(&s.backlog)),
        ("pending", Json::Arr(s.pending.iter().map(pack_to_json).collect())),
        ("active", s.active.as_ref().map_or(Json::Null, pack_to_json)),
        ("next_id", Json::Int(s.next_id as i128)),
        (
            "reports",
            Json::Arr(
                s.reports
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("pack", Json::Int(r.pack as i128)),
                            ("jobs", indices_to_json(&r.jobs)),
                            ("opened", Json::bits(r.opened)),
                            ("closed", Json::bits(r.closed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn staging_snapshot_from_json(v: &Json) -> Result<PackSetSnapshot, ApiError> {
    let partitioner = match field(v, "partitioner")?.as_str() {
        Some("capacity") => PackPartitioner::CapacityChunks,
        Some("lpt") => PackPartitioner::LptBalanced,
        _ => return Err(ApiError::bad_request("unknown staging partitioner")),
    };
    let active = match v.get("active").filter(|a| !a.is_null()) {
        Some(a) => Some(pack_from_json(a)?),
        None => None,
    };
    Ok(PackSetSnapshot {
        partitioner,
        backlog: indices_from_json(field(v, "backlog")?, "'backlog'")?,
        pending: field(v, "pending")?
            .as_arr()
            .ok_or_else(|| ApiError::bad_request("'pending' must be an array"))?
            .iter()
            .map(pack_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        active,
        next_id: index(field(v, "next_id")?, "'next_id'")?,
        reports: field(v, "reports")?
            .as_arr()
            .ok_or_else(|| ApiError::bad_request("'reports' must be an array"))?
            .iter()
            .map(|r| {
                Ok(PackReport {
                    pack: index(field(r, "pack")?, "report 'pack'")?,
                    jobs: indices_from_json(field(r, "jobs")?, "report 'jobs'")?,
                    opened: bits_f64(field(r, "opened")?, "report 'opened'")?,
                    closed: bits_f64(field(r, "closed")?, "report 'closed'")?,
                })
            })
            .collect::<Result<Vec<_>, ApiError>>()?,
    })
}

/// Encodes a session snapshot (plus the speedup spec the online crate
/// cannot carry) as a stable, self-contained JSON document.
///
/// The document does not carry the library-only `reference_policies`
/// test switch: service sessions never set it.
#[must_use]
pub fn snapshot_to_json(snap: &SessionSnapshot, speedup: &SpeedupSpec) -> Json {
    debug_assert!(
        !snap.config.reference_policies,
        "reference-policy sessions are not encodable"
    );
    obj(vec![
        ("version", Json::Int(i128::from(SNAPSHOT_VERSION))),
        ("speedup", speedup.to_json()),
        (
            "platform",
            obj(vec![
                ("procs", Json::Int(i128::from(snap.platform.num_procs))),
                ("mtbf", Json::bits(snap.platform.proc_mtbf)),
                ("downtime", Json::bits(snap.platform.downtime)),
            ]),
        ),
        (
            "strategy",
            obj(vec![
                ("heuristic", Json::Str(snap.strategy.heuristic.name().into())),
                ("rebalance_on_arrival", Json::Bool(snap.strategy.rebalance_on_arrival)),
            ]),
        ),
        (
            "config",
            obj(vec![
                (
                    "faults",
                    snap.config.faults.map_or(Json::Null, |fc| {
                        obj(vec![
                            ("seed", Json::Int(i128::from(fc.seed))),
                            ("law", law_to_json(fc.law, true)),
                        ])
                    }),
                ),
                ("record_trace", Json::Bool(snap.config.record_trace)),
                ("max_events", Json::Int(i128::from(snap.config.max_events))),
            ]),
        ),
        ("faults_drawn", Json::Int(i128::from(snap.faults_drawn))),
        (
            "jobs",
            Json::Arr(
                snap.jobs
                    .iter()
                    .map(|j| {
                        Json::Arr(vec![
                            Json::bits(j.task.size),
                            Json::bits(j.task.ckpt_unit),
                            Json::bits(j.release),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("state", state_to_json(&snap.state)),
        ("trace", Json::Arr(snap.trace.iter().map(|e| trace_event_to_json(e, true)).collect())),
        ("queue", indices_to_json(&snap.queue)),
        ("start", f64s_to_json(&snap.start)),
        ("completion", f64s_to_json(&snap.completion)),
        ("recovery_until", f64s_to_json(&snap.recovery_until)),
        (
            "queue_series",
            Json::Arr(
                snap.queue_series
                    .iter()
                    .map(|&(t, len)| Json::Arr(vec![Json::bits(t), Json::Int(len as i128)]))
                    .collect(),
            ),
        ),
        ("redistributions", Json::Int(i128::from(snap.redistributions))),
        ("handled_faults", Json::Int(i128::from(snap.handled_faults))),
        ("discarded_faults", Json::Int(i128::from(snap.discarded_faults))),
        ("fatal_risk_events", Json::Int(i128::from(snap.fatal_risk_events))),
        ("busy_proc_seconds", Json::bits(snap.busy_proc_seconds)),
        ("last_t", Json::bits(snap.last_t)),
        ("next_arrival", Json::Int(snap.next_arrival as i128)),
        ("events", Json::Int(i128::from(snap.events))),
        ("staging", snap.staging.as_ref().map_or(Json::Null, staging_snapshot_to_json)),
    ])
}

/// Decodes a snapshot document back into a session snapshot plus the
/// speedup spec to rebuild the model from.
///
/// # Errors
/// [`ApiError`] (400) on structural problems. Semantic validation (queue
/// consistency, ownership) happens in
/// [`Session::resume`](redistrib_online::Session::resume).
pub fn snapshot_from_json(v: &Json) -> Result<(SessionSnapshot, SpeedupSpec), ApiError> {
    let version = uint(field(v, "version")?, "'version'")?;
    if !(1..=SNAPSHOT_VERSION).contains(&version) {
        return Err(ApiError::bad_request(format!(
            "unsupported snapshot version {version} (expected 1 to {SNAPSHOT_VERSION})"
        )));
    }
    let speedup = SpeedupSpec::from_json(v.get("speedup"))?;
    let pv = field(v, "platform")?;
    let platform = Platform {
        num_procs: field(pv, "procs")?
            .as_u32()
            .ok_or_else(|| ApiError::bad_request("platform 'procs' must be an integer"))?,
        proc_mtbf: bits_f64(field(pv, "mtbf")?, "platform 'mtbf'")?,
        downtime: bits_f64(field(pv, "downtime")?, "platform 'downtime'")?,
    };
    let sv = field(v, "strategy")?;
    let strategy = OnlineStrategy {
        heuristic: heuristic_from_name(
            field(sv, "heuristic")?
                .as_str()
                .ok_or_else(|| ApiError::bad_request("'heuristic' must be a string"))?,
        )?,
        rebalance_on_arrival: boolean(field(sv, "rebalance_on_arrival")?, "'rebalance'")?,
    };
    let cv = field(v, "config")?;
    let faults = match cv.get("faults").filter(|f| !f.is_null()) {
        Some(fv) => Some(FaultConfig {
            seed: uint(field(fv, "seed")?, "fault 'seed'")?,
            law: law_from_json(field(fv, "law")?, true)?,
        }),
        None => None,
    };
    // Version 1 documents carry the `reference_policies` test switch. A
    // session that ran under it cannot continue without it (`WarmGreedy`
    // decides differently), so such a document is refused, not downgraded.
    if let Some(r) = cv.get("reference_policies") {
        if boolean(r, "'reference_policies'")? {
            return Err(ApiError::bad_request(
                "'reference_policies' sessions cannot be restored by the service",
            ));
        }
    }
    let config = OnlineConfig {
        faults,
        record_trace: boolean(field(cv, "record_trace")?, "'record_trace'")?,
        reference_policies: false,
        max_events: uint(field(cv, "max_events")?, "'max_events'")?,
    };
    let jobs = field(v, "jobs")?
        .as_arr()
        .ok_or_else(|| ApiError::bad_request("'jobs' must be an array"))?
        .iter()
        .map(|j| {
            let a = j.as_arr().filter(|a| a.len() == 3).ok_or_else(|| {
                ApiError::bad_request("snapshot jobs must be [size, ckpt_unit, release]")
            })?;
            Ok(JobSpec {
                task: TaskSpec {
                    size: bits_f64(&a[0], "job size")?,
                    ckpt_unit: bits_f64(&a[1], "job ckpt_unit")?,
                },
                release: bits_f64(&a[2], "job release")?,
            })
        })
        .collect::<Result<Vec<_>, ApiError>>()?;
    let queue_series = field(v, "queue_series")?
        .as_arr()
        .ok_or_else(|| ApiError::bad_request("'queue_series' must be an array"))?
        .iter()
        .map(|e| {
            let a = e
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| ApiError::bad_request("queue_series entries are [time, len]"))?;
            Ok((bits_f64(&a[0], "queue_series time")?, index(&a[1], "queue_series len")?))
        })
        .collect::<Result<Vec<_>, ApiError>>()?;
    let staging = match v.get("staging").filter(|s| !s.is_null()) {
        Some(s) => Some(staging_snapshot_from_json(s)?),
        None => None,
    };
    let snap = SessionSnapshot {
        jobs,
        platform,
        strategy,
        config,
        faults_drawn: uint(field(v, "faults_drawn")?, "'faults_drawn'")?,
        state: state_from_json(field(v, "state")?)?,
        trace: field(v, "trace")?
            .as_arr()
            .ok_or_else(|| ApiError::bad_request("'trace' must be an array"))?
            .iter()
            .map(trace_event_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        queue: indices_from_json(field(v, "queue")?, "'queue'")?,
        start: f64s_from_json(field(v, "start")?, "'start'")?,
        completion: f64s_from_json(field(v, "completion")?, "'completion'")?,
        recovery_until: f64s_from_json(field(v, "recovery_until")?, "'recovery_until'")?,
        queue_series,
        redistributions: uint(field(v, "redistributions")?, "'redistributions'")?,
        handled_faults: uint(field(v, "handled_faults")?, "'handled_faults'")?,
        discarded_faults: uint(field(v, "discarded_faults")?, "'discarded_faults'")?,
        fatal_risk_events: uint(field(v, "fatal_risk_events")?, "'fatal_risk_events'")?,
        busy_proc_seconds: bits_f64(field(v, "busy_proc_seconds")?, "'busy_proc_seconds'")?,
        last_t: bits_f64(field(v, "last_t")?, "'last_t'")?,
        next_arrival: index(field(v, "next_arrival")?, "'next_arrival'")?,
        events: uint(field(v, "events")?, "'events'")?,
        staging,
    };
    Ok((snap, speedup))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_json(extra: &str) -> Json {
        let text = format!(
            r#"{{"platform":{{"procs":16}},"jobs":[{{"size":5000}},{{"size":9000,"release":100}}]{extra}}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = SessionSpec::from_json(&spec_json("")).unwrap();
        assert_eq!(spec.platform.num_procs, 16);
        assert_eq!(spec.speedup, SpeedupSpec::Paper);
        assert_eq!(spec.strategy, OnlineStrategy::no_resize());
        assert!(spec.config.faults.is_none());
        assert_eq!(spec.staging, PackStaging::FlatFifo);
        assert_eq!(spec.jobs.len(), 2);
        assert_eq!(spec.jobs[1].release, 100.0);
    }

    #[test]
    fn full_spec_parses() {
        let spec = SessionSpec::from_json(&spec_json(
            r#","speedup":{"model":"amdahl","seq":0.05},
               "strategy":{"heuristic":"IteratedGreedy-EndLocal"},
               "faults":{"seed":42,"law":{"kind":"weibull","shape":0.7,"mtbf":500}},
               "record_trace":true,
               "staging":{"mode":"oversubscribed","partitioner":"lpt"}"#,
        ))
        .unwrap();
        assert_eq!(spec.speedup, SpeedupSpec::Amdahl { seq: 0.05 });
        assert_eq!(spec.strategy.heuristic, Heuristic::IteratedGreedyEndLocal);
        assert!(spec.strategy.rebalance_on_arrival);
        assert!(matches!(
            spec.config.faults,
            Some(FaultConfig { seed: 42, law: FaultLaw::Weibull { .. } })
        ));
        assert!(spec.config.record_trace);
        assert_eq!(
            spec.staging,
            PackStaging::Oversubscribed { partitioner: PackPartitioner::LptBalanced }
        );
    }

    #[test]
    fn bad_specs_are_rejected() {
        for (extra, needle) in [
            (r#","strategy":"NoSuchHeuristic""#, "unknown heuristic"),
            (r#","speedup":{"model":"cuda"}"#, "unknown speedup model"),
            (r#","staging":{"mode":"oversubscribed","partitioner":"magic"}"#, "partitioner"),
            (r#","faults":{"seed":-1}"#, "seed"),
            (
                r#","reference_policies":true"#,
                "unknown session spec field 'reference_policies'",
            ),
        ] {
            let err = SessionSpec::from_json(&spec_json(extra)).unwrap_err();
            assert_eq!(err.status, 400);
            assert!(err.message.contains(needle), "{}: {}", extra, err.message);
        }
        let no_jobs = Json::parse(r#"{"platform":{"procs":8},"jobs":[]}"#).unwrap();
        assert!(SessionSpec::from_json(&no_jobs).is_err());
    }

    #[test]
    fn heuristic_names_roundtrip() {
        for h in [
            Heuristic::NoRedistribution,
            Heuristic::IteratedGreedyEndGreedy,
            Heuristic::IteratedGreedyEndLocal,
            Heuristic::ShortestTasksFirstEndGreedy,
            Heuristic::ShortestTasksFirstEndLocal,
            Heuristic::EndLocalOnly,
            Heuristic::EndGreedyOnly,
            Heuristic::WarmGreedy,
        ] {
            assert_eq!(heuristic_from_name(h.name()).unwrap(), h);
        }
    }

    #[test]
    fn snapshot_document_roundtrips_bit_exactly() {
        let spec = SessionSpec::from_json(&spec_json(
            r#","strategy":"WarmGreedy","faults":{"seed":7},"record_trace":true"#,
        ))
        .unwrap();
        let mut session = spec.scheduler().session(&spec.jobs).unwrap();
        for _ in 0..3 {
            session.step().unwrap();
        }
        let snap = session.snapshot();
        let doc = snapshot_to_json(&snap, &spec.speedup);
        let reparsed = Json::parse(&doc.encode()).unwrap();
        let (snap2, speedup2) = snapshot_from_json(&reparsed).unwrap();
        assert_eq!(speedup2, spec.speedup);
        // The re-encoded document is byte-identical — the encoding is
        // deterministic and lossless.
        assert_eq!(snapshot_to_json(&snap2, &speedup2).encode(), doc.encode());
        // And the resumed session replays the identical remaining run.
        let a = redistrib_online::Session::resume(snap2, speedup2.build())
            .unwrap()
            .run_to_completion()
            .unwrap();
        let b = session.run_to_completion().unwrap();
        assert_eq!(a.trace.to_csv(), b.trace.to_csv());
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    }
}
