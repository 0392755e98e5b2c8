//! JSON-lines run checkpoints: one line per completed run.
//!
//! The workspace's vendored `serde` is a no-op stand-in, so this module
//! writes [`RunResult`] by hand and parses it back with a small built-in
//! JSON reader. The stored schema is the field list of each counter record
//! (cache, DRAM and Garibaldi stats, the conditional matrix, CPI stack,
//! reuse summary and energy report), declared once beside its struct with
//! [`garibaldi_types::fields!`]: one generic writer emits a record's fields
//! in list order and one generic reader fills them back, a missing field
//! reading as 0. Only [`CoreResult`], [`GaribaldiReport`]'s scalars and the
//! top-level keys are named here. The bench harness keys each run by a
//! caller-chosen string and skips runs already present in the checkpoint
//! file, which makes long figure sweeps resumable
//! (`garibaldi_bench::parallel_runs_checkpointed`).
//!
//! Floats are written in Rust's shortest round-trip form (non-finite
//! values as tagged `"NaN"`/`"inf"`/`"-inf"` strings), so a parsed result
//! is bit-identical to the one written.
//!
//! # Durability
//!
//! [`append_tagged`] frames each record as
//!
//! ```text
//! GCKP1 <engine-tag> <crc32-hex8> <json-payload>\n
//! ```
//!
//! and fsyncs (`sync_data`) before returning, so a record that `append_tagged`
//! acknowledged survives a process crash or power cut. The trailing
//! newline is the commit marker: [`load_report`] treats a final line
//! without one as a *torn tail* — never parsed, flagged in
//! [`SalvageReport::truncated_tail`] — and the next `append_tagged` isolates it
//! behind an inserted newline, so a crash mid-append loses at most the
//! record that was being written. The payload CRC32 ([`garibaldi_types::crc`])
//! rejects bit rot and half-written frames that happen to end in a
//! newline. Unframed lines from pre-framing checkpoint files still load
//! (counted in [`SalvageReport::version_mismatches`]); framed lines with
//! an unknown version are skipped, not guessed at.

use crate::fault;
use crate::metrics::{CoreResult, GaribaldiReport, RunResult};
use garibaldi_types::crc::crc32;
use garibaldi_types::{Field, Fields};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

// ---- writing ---------------------------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        // JSON has no NaN/inf; tagged strings keep the round trip
        // bit-faithful instead of collapsing non-finite values to 0.0.
        "\"NaN\"".to_string()
    } else if v > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

/// Appends `rec` as a JSON object of its fields in declaration order.
fn record_json(s: &mut String, mut rec: impl Fields) {
    let mut sep = '{';
    rec.each(|name, f| {
        s.push(sep);
        sep = ',';
        let _ = match f {
            Field::U64(v) => write!(s, "\"{name}\":{v}"),
            Field::F64(v) => write!(s, "\"{name}\":{}", num(*v)),
        };
    });
    s.push('}');
}

/// Appends `,"name":` and `rec` as a JSON object, or `null` when absent.
fn member(s: &mut String, name: &str, rec: Option<impl Fields>) {
    let _ = write!(s, ",\"{name}\":");
    match rec {
        Some(rec) => record_json(s, rec),
        None => s.push_str("null"),
    }
}

/// Serializes `result` under `key` as one JSON line (no trailing newline).
pub fn to_json_line(key: &str, r: &RunResult) -> String {
    let mut s = String::with_capacity(1024);
    let _ = write!(s, "{{\"key\":\"{}\",\"scheme\":\"{}\",\"cores\":[", esc(key), esc(&r.scheme));
    for (i, c) in r.cores.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"instrs\":{},\"cycles\":{},\"ipc\":{},\"stack\":",
            esc(&c.workload),
            c.instrs,
            num(c.cycles),
            num(c.ipc),
        );
        record_json(&mut s, c.stack);
        s.push('}');
    }
    s.push(']');
    for (name, stats) in [("l1", r.l1), ("l1i", r.l1i), ("l2", r.l2), ("llc", r.llc)] {
        member(&mut s, name, Some(stats));
    }
    member(&mut s, "dram", Some(r.dram));
    match &r.garibaldi {
        Some(g) => {
            s.push_str(",\"garibaldi\":{\"stats\":");
            record_json(&mut s, g.stats);
            let _ = write!(
                s,
                ",\"final_threshold\":{},\"color_ticks\":{},\"helper_hit_rate\":{}}}",
                g.final_threshold,
                g.color_ticks,
                num(g.helper_hit_rate)
            );
        }
        None => s.push_str(",\"garibaldi\":null"),
    }
    member(&mut s, "conditional", Some(r.conditional));
    member(&mut s, "reuse", r.reuse);
    member(&mut s, "energy", Some(r.energy));
    let _ = write!(s, ",\"qbs_cycles\":{},\"invalidations\":{}}}", r.qbs_cycles, r.invalidations);
    s
}

// ---- minimal JSON reader ---------------------------------------------------

/// A parsed JSON value (just enough for checkpoint lines). Unsigned-integer
/// tokens are kept exact in [`Json::UInt`] — routing them through `f64`
/// would corrupt counters above 2^53 (caught by
/// `tests/checkpoint_properties.rs`).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    UInt(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(HashMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn u64_field(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(Json::UInt(n)) => *n,
            Some(Json::Num(n)) => *n as u64,
            _ => 0,
        }
    }

    fn f64_field(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Json::UInt(n)) => *n as f64,
            Some(Json::Num(n)) => *n,
            // `num()` tags non-finite values as strings; legacy lines
            // wrote `null`, which keeps parsing as the old 0.0.
            Some(Json::Str(s)) if s == "NaN" => f64::NAN,
            Some(Json::Str(s)) if s == "inf" => f64::INFINITY,
            Some(Json::Str(s)) if s == "-inf" => f64::NEG_INFINITY,
            _ => 0.0,
        }
    }

    fn str_field(&self, key: &str) -> String {
        match self.get(key) {
            Some(Json::Str(s)) => s.clone(),
            _ => String::new(),
        }
    }
}

/// Parses one line of JSON.
fn parse_json(line: &str) -> Option<Json> {
    let mut p = Parser { b: line.as_bytes(), i: 0 };
    p.value()
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    /// Skips whitespace, then consumes `token` if it comes next.
    fn eat(&mut self, token: &[u8]) -> Option<()> {
        self.ws();
        self.b[self.i..].starts_with(token).then(|| self.i += token.len())
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b't' => self.eat(b"true").map(|_| Json::Bool(true)),
            b'f' => self.eat(b"false").map(|_| Json::Bool(false)),
            b'n' => self.eat(b"null").map(|_| Json::Null),
            _ => self.number(),
        }
    }

    /// `open item (, item)* close`, or `open close`; `item` parses one.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<()>,
    ) -> Option<()> {
        self.eat(&[open])?;
        if self.peek() == Some(close) {
            self.i += 1;
            return Some(());
        }
        loop {
            item(self)?;
            match self.peek()? {
                b',' => self.i += 1,
                c if c == close => {
                    self.i += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Json> {
        let mut m = HashMap::new();
        self.seq(b'{', b'}', |p| {
            let k = p.string()?;
            p.eat(b":")?;
            m.insert(k, p.value()?);
            Some(())
        })?;
        Some(Json::Obj(m))
    }

    fn array(&mut self) -> Option<Json> {
        let mut v = Vec::new();
        self.seq(b'[', b']', |p| {
            v.push(p.value()?);
            Some(())
        })?;
        Some(Json::Arr(v))
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b"\"")?;
        let mut s = String::new();
        loop {
            let c = *self.b.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return Some(s),
                b'\\' => {
                    let e = *self.b.get(self.i)?;
                    self.i += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4)?;
                            self.i += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            s.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                c => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if c < 0x80 {
                        s.push(c as char);
                    } else {
                        let start = self.i - 1;
                        let len = match c {
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let chunk = self.b.get(start..start + len)?;
                        s.push_str(std::str::from_utf8(chunk).ok()?);
                        self.i = start + len;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        self.ws();
        let start = self.i;
        while self
            .b
            .get(self.i)
            .map(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
            .unwrap_or(false)
        {
            self.i += 1;
        }
        let tok = std::str::from_utf8(&self.b[start..self.i]).ok()?;
        // Plain non-negative integers stay exact (u64 counters exceed f64's
        // 53-bit mantissa); everything else goes through f64.
        if let Ok(u) = tok.parse::<u64>() {
            return Some(Json::UInt(u));
        }
        tok.parse().ok().map(Json::Num)
    }
}

// ---- reading ---------------------------------------------------------------

/// Reads a record's fields back from JSON object `j`; a missing field
/// reads as 0.
fn record_from<T: Fields + Default>(j: &Json) -> T {
    let mut rec = T::default();
    rec.each(|name, f| match f {
        Field::U64(v) => *v = j.u64_field(name),
        Field::F64(v) => *v = j.f64_field(name),
    });
    rec
}

/// Parses one checkpoint line back into `(key, RunResult)`.
pub fn parse_json_line(line: &str) -> Option<(String, RunResult)> {
    let j = parse_json(line)?;
    let key = j.str_field("key");
    let cores = match j.get("cores")? {
        Json::Arr(v) => v
            .iter()
            .map(|c| CoreResult {
                workload: c.str_field("workload"),
                instrs: c.u64_field("instrs"),
                cycles: c.f64_field("cycles"),
                ipc: c.f64_field("ipc"),
                stack: c.get("stack").map(record_from).unwrap_or_default(),
            })
            .collect(),
        _ => return None,
    };
    let garibaldi = match j.get("garibaldi") {
        Some(g @ Json::Obj(_)) => Some(GaribaldiReport {
            stats: g.get("stats").map(record_from).unwrap_or_default(),
            final_threshold: g.u64_field("final_threshold") as u32,
            color_ticks: g.u64_field("color_ticks"),
            helper_hit_rate: g.f64_field("helper_hit_rate"),
        }),
        _ => None,
    };
    let reuse = match j.get("reuse") {
        Some(u @ Json::Obj(_)) => Some(record_from(u)),
        _ => None,
    };
    let record = |name| j.get(name).map(record_from).unwrap_or_default();
    Some((
        key,
        RunResult {
            scheme: j.str_field("scheme"),
            cores,
            l1: record("l1"),
            l1i: record("l1i"),
            l2: record("l2"),
            llc: record("llc"),
            dram: record_from(j.get("dram")?),
            garibaldi,
            conditional: record_from(j.get("conditional")?),
            reuse,
            energy: record_from(j.get("energy")?),
            qbs_cycles: j.u64_field("qbs_cycles"),
            invalidations: j.u64_field("invalidations"),
        },
    ))
}

// ---- durable framed storage ------------------------------------------------

/// Frame magic; a full header is `GCKP<version> <engine-tag> <crc-hex8> `.
const FRAME_MAGIC: &str = "GCKP";
/// Current frame format version.
pub const FRAME_VERSION: u32 = 1;

/// A typed checkpoint-layer failure, carrying the path it happened on.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// Checkpoint file the operation targeted.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint I/O on {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.to_path_buf(), source }
}

/// What [`load_report`] salvaged from a checkpoint file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Records parsed into the returned map (before duplicate-key wins).
    pub parsed: usize,
    /// Lines dropped: CRC mismatches, unparseable payloads, non-UTF-8
    /// bytes, or malformed frame headers.
    pub skipped_garbage: usize,
    /// The file ended without a trailing newline: the final record was
    /// torn mid-append and has been excluded (the prefix is intact).
    pub truncated_tail: bool,
    /// Lines from another format version: legacy unframed lines (still
    /// parsed) and framed lines with an unknown version (skipped).
    pub version_mismatches: usize,
}

impl SalvageReport {
    /// True when every line parsed cleanly in the current format.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.skipped_garbage == 0 && !self.truncated_tail && self.version_mismatches == 0
    }
}

impl std::fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} record{} parsed, {} garbage line{} skipped, {} version mismatch{}, {}",
            self.parsed,
            if self.parsed == 1 { "" } else { "s" },
            self.skipped_garbage,
            if self.skipped_garbage == 1 { "" } else { "s" },
            self.version_mismatches,
            if self.version_mismatches == 1 { "" } else { "es" },
            if self.truncated_tail { "torn tail truncated" } else { "clean tail" }
        )
    }
}

/// Frames one record as a durable checkpoint line (no trailing newline).
///
/// `tag` names the engine that produced the record (whitespace is folded
/// to `-` so the space-separated header stays parseable); the CRC32
/// covers the JSON payload exactly as written.
pub fn frame_line(tag: &str, key: &str, r: &RunResult) -> String {
    let payload = to_json_line(key, r);
    let tag: String = tag.chars().map(|c| if c.is_whitespace() { '-' } else { c }).collect();
    let tag = if tag.is_empty() { "-".to_string() } else { tag };
    format!("{FRAME_MAGIC}{FRAME_VERSION} {tag} {:08x} {payload}", crc32(payload.as_bytes()))
}

/// `GCKP`-prefixed line split into (version, crc, payload), if well-formed.
fn parse_frame(after_magic: &str) -> Option<(u32, u32, &str)> {
    let (version_s, rest) = after_magic.split_once(' ')?;
    let version: u32 = version_s.parse().ok()?;
    let (_tag, rest) = rest.split_once(' ')?;
    let (crc_s, payload) = rest.split_once(' ')?;
    if crc_s.len() != 8 {
        return None;
    }
    let crc = u32::from_str_radix(crc_s, 16).ok()?;
    Some((version, crc, payload))
}

/// Loads a checkpoint file, reporting exactly what was salvaged.
///
/// A missing file is an empty checkpoint. Later lines win on duplicate
/// keys. Only newline-terminated lines are considered committed: a final
/// unterminated segment is the torn tail of a crashed append and is
/// flagged, never parsed. See [`SalvageReport`] for the per-line
/// classification.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] when the file exists but cannot be
/// read; per-line damage is salvage-reported, not an error.
pub fn load_report(
    path: &Path,
) -> Result<(HashMap<String, RunResult>, SalvageReport), CheckpointError> {
    let mut map = HashMap::new();
    let mut report = SalvageReport::default();
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((map, report)),
        Err(e) => return Err(io_err(path, e)),
    };
    let body = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(last_nl) => {
            report.truncated_tail = last_nl + 1 < bytes.len();
            &bytes[..last_nl]
        }
        None => {
            report.truncated_tail = !bytes.is_empty();
            &bytes[..0]
        }
    };
    for raw in body.split(|&b| b == b'\n') {
        if raw.is_empty() {
            continue;
        }
        let Ok(line) = std::str::from_utf8(raw) else {
            report.skipped_garbage += 1;
            continue;
        };
        if let Some(after_magic) = line.strip_prefix(FRAME_MAGIC) {
            match parse_frame(after_magic) {
                Some((version, _, _)) if version != FRAME_VERSION => {
                    // A future format we cannot safely interpret.
                    report.version_mismatches += 1;
                }
                Some((_, crc, payload)) => {
                    if crc32(payload.as_bytes()) != crc {
                        report.skipped_garbage += 1;
                    } else if let Some((k, r)) = parse_json_line(payload) {
                        report.parsed += 1;
                        map.insert(k, r);
                    } else {
                        report.skipped_garbage += 1;
                    }
                }
                None => report.skipped_garbage += 1,
            }
        } else if let Some((k, r)) = parse_json_line(line) {
            // Legacy unframed record from a pre-framing checkpoint.
            report.parsed += 1;
            report.version_mismatches += 1;
            map.insert(k, r);
        } else {
            report.skipped_garbage += 1;
        }
    }
    Ok((map, report))
}

/// Appends one run to a checkpoint file (created on demand), durably.
///
/// The record is framed ([`frame_line`]) and `sync_data` runs before
/// returning, so an acknowledged append survives a crash. If the file's
/// last line was cut short (a previous writer died mid-append), a
/// newline is inserted first so the partial record stays isolated as one
/// garbage line instead of corrupting this one — resuming after a crash
/// loses at most the record that was being written
/// (`tests/checkpoint_properties.rs`, `tests/fault_injection.rs`).
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on any filesystem failure.
pub fn append_tagged(
    path: &Path,
    tag: &str,
    key: &str,
    r: &RunResult,
) -> Result<(), CheckpointError> {
    use std::io::{Read, Seek, SeekFrom, Write};
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| io_err(path, e))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    let len = f.metadata().map_err(|e| io_err(path, e))?.len();
    if len > 0 {
        f.seek(SeekFrom::End(-1)).map_err(|e| io_err(path, e))?;
        let mut last = [0u8];
        f.read_exact(&mut last).map_err(|e| io_err(path, e))?;
        if last[0] != b'\n' {
            f.write_all(b"\n").map_err(|e| io_err(path, e))?;
        }
    }
    let line = frame_line(tag, key, r);
    match fault::io_hook() {
        Some(fault::IoFault::Error) => {
            return Err(io_err(path, std::io::Error::other("injected transient I/O error")));
        }
        Some(fault::IoFault::ShortWrite) => {
            // Simulated crash mid-append: half the frame lands, no commit
            // newline, and the caller never hears back (in the real crash
            // the process is gone). load_report must flag this tail.
            let cut = line.len() / 2;
            f.write_all(&line.as_bytes()[..cut]).map_err(|e| io_err(path, e))?;
            f.sync_data().map_err(|e| io_err(path, e))?;
            return Ok(());
        }
        None => {}
    }
    f.write_all(line.as_bytes()).map_err(|e| io_err(path, e))?;
    f.write_all(b"\n").map_err(|e| io_err(path, e))?;
    // The newline is the commit marker; sync_data makes it durable.
    f.sync_data().map_err(|e| io_err(path, e))
}

/// [`append_tagged`] with bounded-backoff retries for transient I/O errors.
///
/// Retries up to `attempts` times total, sleeping 10 ms and quadrupling
/// between attempts (10 ms, 40 ms for the default 3 attempts); each
/// failed attempt logs one line to stderr.
///
/// # Errors
///
/// Returns the last [`CheckpointError`] once `attempts` is exhausted.
pub fn append_retry(
    path: &Path,
    tag: &str,
    key: &str,
    r: &RunResult,
    attempts: u32,
) -> Result<(), CheckpointError> {
    let attempts = attempts.max(1);
    let mut delay = std::time::Duration::from_millis(10);
    let mut last = None;
    for attempt in 1..=attempts {
        match append_tagged(path, tag, key, r) {
            Ok(()) => return Ok(()),
            Err(e) => {
                if attempt < attempts {
                    eprintln!(
                        "[checkpoint] append attempt {attempt}/{attempts} failed: {e} — \
                         retrying in {delay:?}"
                    );
                    std::thread::sleep(delay);
                    delay *= 4;
                }
                last = Some(e);
            }
        }
    }
    Err(last.expect("attempts >= 1 ran at least once"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ConditionalMatrix, ReuseSummary};
    use crate::{CpiStack, EnergyReport};
    use garibaldi::GaribaldiStats;
    use garibaldi_cache::CacheStats;
    use garibaldi_mem::DramStats;

    fn sample(with_garibaldi: bool) -> RunResult {
        RunResult {
            scheme: "Mockingjay+Garibaldi".into(),
            cores: vec![CoreResult {
                workload: "tpcc \"hot\"".into(),
                instrs: 12345,
                cycles: 6789.125,
                ipc: 1.818_427_345,
                stack: CpiStack { base: 1.0, ifetch: 0.25, data: 0.125, branch: 0.0625 },
            }],
            l1: CacheStats { i_accesses: 7, d_hits: 3, ..Default::default() },
            l1i: CacheStats { i_accesses: 7, ..Default::default() },
            l2: CacheStats { writebacks: 9, ..Default::default() },
            llc: CacheStats { bypasses: 2, guarded_protections: 4, ..Default::default() },
            dram: DramStats { reads: 11, writes: 5, queue_delay: 100, queued_requests: 2 },
            garibaldi: with_garibaldi.then(|| GaribaldiReport {
                stats: GaribaldiStats { pair_updates: 42, protections: 3, ..Default::default() },
                final_threshold: 31,
                color_ticks: 12,
                helper_hit_rate: 0.875,
            }),
            conditional: ConditionalMatrix {
                dhit_imiss: 1,
                dhit_total: 2,
                dmiss_imiss: 3,
                dmiss_total: 4,
            },
            reuse: None,
            energy: EnergyReport { dynamic_j: 0.001_234_5, static_j: 0.067_8 },
            qbs_cycles: 77,
            invalidations: 88,
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for g in [false, true] {
            let r = sample(g);
            let line = to_json_line("fig11/tpcc/seed42", &r);
            let (key, back) = parse_json_line(&line).expect("parse");
            assert_eq!(key, "fig11/tpcc/seed42");
            assert_eq!(back, r);
        }
        // Non-finite floats round-trip via the tagged-string encoding.
        // NaN != NaN under PartialEq, so compare bits and re-serialization.
        let mut r = sample(true);
        r.cores[0].cycles = f64::NAN;
        r.cores[0].ipc = f64::INFINITY;
        r.cores[0].stack.data = f64::NEG_INFINITY;
        r.energy.dynamic_j = f64::NAN;
        let line = to_json_line("nonfinite", &r);
        let (_, back) = parse_json_line(&line).expect("parse");
        assert_eq!(back.cores[0].cycles.to_bits(), f64::NAN.to_bits());
        assert_eq!(back.cores[0].ipc, f64::INFINITY);
        assert_eq!(back.cores[0].stack.data, f64::NEG_INFINITY);
        assert_eq!(back.energy.dynamic_j.to_bits(), f64::NAN.to_bits());
        assert_eq!(to_json_line("nonfinite", &back), line, "re-serialization is stable");
        // Legacy lines wrote null for non-finite; that still parses as 0.0.
        let legacy = line.replace("\"NaN\"", "null");
        let (_, old) = parse_json_line(&legacy).expect("parse legacy");
        assert_eq!(old.energy.dynamic_j, 0.0);
    }

    /// Every field of every record is written, under its own name, with
    /// the record's object holding exactly its field list.
    #[test]
    fn skipped_serde_fields_are_present_in_the_line() {
        fn names(mut rec: impl Fields) -> Vec<&'static str> {
            let mut out = Vec::new();
            rec.each(|name, _| out.push(name));
            out
        }
        let mut r = sample(true);
        r.reuse = Some(ReuseSummary::default());
        let j = parse_json(&to_json_line("k", &r)).unwrap();
        let g = j.get("garibaldi").unwrap();
        let core = match j.get("cores") {
            Some(Json::Arr(cores)) => &cores[0],
            other => panic!("cores: {other:?}"),
        };
        let records = [
            (j.get("l1"), names(r.l1)),
            (j.get("l1i"), names(r.l1i)),
            (j.get("l2"), names(r.l2)),
            (j.get("llc"), names(r.llc)),
            (j.get("dram"), names(r.dram)),
            (g.get("stats"), names(GaribaldiStats::default())),
            (j.get("conditional"), names(r.conditional)),
            (core.get("stack"), names(r.cores[0].stack)),
            (j.get("reuse"), names(ReuseSummary::default())),
            (j.get("energy"), names(r.energy)),
        ];
        for (obj, fields) in records {
            let Some(Json::Obj(obj)) = obj else { panic!("{fields:?}: no object") };
            assert_eq!(obj.len(), fields.len(), "{fields:?}");
            for field in fields {
                assert!(obj.contains_key(field), "{field} serialized");
            }
        }
    }

    #[test]
    fn file_round_trip_and_duplicate_keys() {
        let dir = std::env::temp_dir().join("garibaldi-checkpoint-test");
        let path = dir.join("runs.jsonl");
        let _ = std::fs::remove_file(&path);
        append_tagged(&path, "-", "a", &sample(false)).unwrap();
        append_tagged(&path, "-", "a", &sample(true)).unwrap();
        append_tagged(&path, "-", "b", &sample(false)).unwrap();
        let (m, _) = load_report(&path).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m["a"].garibaldi.is_some(), "later line wins");
        assert!(m["b"].garibaldi.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_lines_are_skipped() {
        assert!(parse_json_line("not json").is_none());
        assert!(parse_json_line("{\"key\":\"x\"}").is_none(), "missing fields rejected");

        // load_report counts every class of damage instead of silently
        // dropping lines.
        let dir = std::env::temp_dir().join("garibaldi-checkpoint-salvage-test");
        let path = dir.join("runs.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let good = frame_line("serial", "good", &sample(true));
        let legacy = to_json_line("legacy", &sample(false));
        let mut corrupt = frame_line("serial", "corrupt", &sample(false)).into_bytes();
        let flip = corrupt.len() - 10;
        // Flip one payload byte (ASCII JSON) so the CRC check rejects it.
        corrupt[flip] ^= 0x01;
        let corrupt = String::from_utf8(corrupt).unwrap();
        let future = format!("{FRAME_MAGIC}9 tag 00000000 {{}}");
        let content = format!("{good}\nnot json at all\n{legacy}\n{corrupt}\n{future}\nGCKP torn");
        std::fs::write(&path, content).unwrap();

        let (map, report) = load_report(&path).unwrap();
        assert_eq!(map.len(), 2, "framed + legacy records load");
        assert!(map.contains_key("good") && map.contains_key("legacy"));
        assert_eq!(report.parsed, 2);
        assert_eq!(report.skipped_garbage, 2, "garbage line + CRC mismatch");
        assert_eq!(report.version_mismatches, 2, "legacy line + future-version line");
        assert!(report.truncated_tail, "unterminated final segment flagged");
        assert!(!report.is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn salvage_report_display_is_readable() {
        let report = SalvageReport {
            parsed: 2,
            skipped_garbage: 1,
            truncated_tail: true,
            version_mismatches: 0,
        };
        assert_eq!(
            report.to_string(),
            "2 records parsed, 1 garbage line skipped, 0 version mismatches, torn tail truncated"
        );
        assert!(SalvageReport { parsed: 5, ..Default::default() }.is_clean());
    }

    #[test]
    fn framed_lines_embed_the_engine_tag_and_crc() {
        let r = sample(false);
        let line = frame_line("sharded-s8-e20000", "k", &r);
        assert!(line.starts_with("GCKP1 sharded-s8-e20000 "));
        let payload = to_json_line("k", &r);
        assert!(line.ends_with(&payload));
        assert!(line.contains(&format!("{:08x}", crc32(payload.as_bytes()))));
        // Tags with whitespace cannot break the space-separated header.
        assert!(frame_line("two words", "k", &r).starts_with("GCKP1 two-words "));
        assert!(frame_line("", "k", &r).starts_with("GCKP1 - "));
    }

    #[test]
    fn append_fsyncs_a_framed_line_and_load_reports_clean() {
        let dir = std::env::temp_dir().join("garibaldi-checkpoint-framed-test");
        let path = dir.join("runs.jsonl");
        let _ = std::fs::remove_file(&path);
        append_tagged(&path, "serial", "a", &sample(true)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("GCKP1 serial "));
        assert!(text.ends_with('\n'), "newline commit marker present");
        let (map, report) = load_report(&path).unwrap();
        assert_eq!(map.len(), 1);
        assert!(report.is_clean(), "fresh framed file is clean: {report}");
        assert_eq!(report.version_mismatches, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_error_display_names_the_path() {
        let dir = std::env::temp_dir().join("garibaldi-checkpoint-error-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Appending to a path that is a directory fails with a typed error.
        let err = append_tagged(&dir, "-", "k", &sample(false)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("checkpoint I/O"), "{msg}");
        assert!(msg.contains("garibaldi-checkpoint-error-test"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }
}
