//! Typed view of `zc-audit.toml`.

use crate::toml::{self, Table, Value};
use std::fmt;
use std::path::Path;

/// A copy idiom the copy-path rule can flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Idiom {
    /// `.to_vec()`
    ToVec,
    /// `.to_owned()`
    ToOwned,
    /// `.clone()` — except `Arc::clone(..)` / `Rc::clone(..)`, which are
    /// refcount bumps by construction and never flagged.
    Clone,
    /// `copy_from_slice(..)` (method or `slice::` form)
    CopyFromSlice,
    /// `.extend_from_slice(..)`
    ExtendFromSlice,
    /// `Vec::from(..)`
    VecFrom,
    /// `ptr::copy` / `ptr::copy_nonoverlapping` / bare `copy_nonoverlapping`
    PtrCopy,
    /// `format!(..)` (allocates + copies into a fresh String)
    Format,
    /// `.to_string()` / `.into_bytes()` style stringification
    ToString,
}

impl Idiom {
    pub fn parse(s: &str) -> Option<Idiom> {
        Some(match s {
            "to_vec" => Idiom::ToVec,
            "to_owned" => Idiom::ToOwned,
            "clone" => Idiom::Clone,
            "copy_from_slice" => Idiom::CopyFromSlice,
            "extend_from_slice" => Idiom::ExtendFromSlice,
            "vec_from" => Idiom::VecFrom,
            "ptr_copy" => Idiom::PtrCopy,
            "format" => Idiom::Format,
            "to_string" => Idiom::ToString,
            _ => return None,
        })
    }

    /// Human name used in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            Idiom::ToVec => ".to_vec()",
            Idiom::ToOwned => ".to_owned()",
            Idiom::Clone => ".clone()",
            Idiom::CopyFromSlice => "copy_from_slice()",
            Idiom::ExtendFromSlice => "extend_from_slice()",
            Idiom::VecFrom => "Vec::from()",
            Idiom::PtrCopy => "ptr::copy*()",
            Idiom::Format => "format!()",
            Idiom::ToString => ".to_string()",
        }
    }
}

/// One declared zero-copy module: a set of files plus the idioms banned
/// within them.
#[derive(Debug, Clone)]
pub struct CopyPathModule {
    pub name: String,
    pub paths: Vec<String>,
    pub idioms: Vec<Idiom>,
}

/// Unsafe-audit rule configuration.
#[derive(Debug, Clone, Default)]
pub struct UnsafeAudit {
    /// Files (or directory prefixes ending in `/`) whose `unsafe` tokens
    /// each require a `// SAFETY:` comment.
    pub paths: Vec<String>,
    /// Crate roots that must declare `#![deny(unsafe_op_in_unsafe_fn)]`.
    pub deny_unsafe_op_roots: Vec<String>,
}

/// Meter-coverage rule configuration.
#[derive(Debug, Clone, Default)]
pub struct MeterCoverage {
    /// Files (or directory prefixes) where raw byte-copy primitives must sit
    /// in a function that also touches the copy meter.
    pub paths: Vec<String>,
    /// Identifiers whose presence in the enclosing function counts as
    /// metering (e.g. `meter`, `CopyMeter`, `record`).
    pub markers: Vec<String>,
}

/// lock-order pass configuration (disabled when `paths` is empty).
#[derive(Debug, Clone, Default)]
pub struct LockOrder {
    /// Files (or directory prefixes) whose lock acquisitions are analyzed.
    pub paths: Vec<String>,
    /// Function names considered blocking at the leaves (e.g. `send_data`,
    /// `recv_control`, `connect`); blocking-ness propagates up call edges.
    pub blocking: Vec<String>,
}

/// wire-taint pass configuration (disabled when `paths` is empty).
#[derive(Debug, Clone, Default)]
pub struct TaintConfig {
    /// Files (or directory prefixes) whose decode-path sinks are audited.
    pub paths: Vec<String>,
    /// Function names whose parameters carry wire-controlled bytes (taint
    /// seeds); matched only inside `paths`.
    pub entrypoints: Vec<String>,
    /// Identifiers that bound a tainted value. A `let` rebind whose
    /// initializer mentions one (or any `checked_*`/`saturating_*` call)
    /// clears taint, and taint waiver reasons / `SAFETY:` citations must
    /// name one.
    pub clamps: Vec<String>,
    /// Callee names that allocate proportionally to an argument
    /// (`with_capacity`, `reserve`, this repo's `acquire`, …).
    pub allocs: Vec<String>,
}

/// A declared atomic-ordering protocol kind (see `[[atomics.protocol]]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Relaxed increment, Release decrement, Acquire fence before drop —
    /// the classic `Arc`-style refcount discipline.
    Refcount,
    /// Paired Acquire load / Release store publication on a sequence cell
    /// (named by `seq`), Relaxed data fields in between.
    Seqlock,
    /// AcqRel `compare_exchange`/`fetch_update` with a Relaxed-tolerant
    /// fast path: every non-CAS site must be Relaxed.
    CasRoll,
    /// Relaxed-only statistics counters; stronger orderings (especially
    /// `SeqCst`) are flagged as needless.
    CounterRelaxed,
    /// A stop/shutdown flag: Release store, Acquire load, AcqRel RMW.
    ReleaseFlag,
}

impl ProtocolKind {
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        Some(match s {
            "refcount" => ProtocolKind::Refcount,
            "seqlock" => ProtocolKind::Seqlock,
            "cas-roll" => ProtocolKind::CasRoll,
            "counter-relaxed" => ProtocolKind::CounterRelaxed,
            "release-flag" => ProtocolKind::ReleaseFlag,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Refcount => "refcount",
            ProtocolKind::Seqlock => "seqlock",
            ProtocolKind::CasRoll => "cas-roll",
            ProtocolKind::CounterRelaxed => "counter-relaxed",
            ProtocolKind::ReleaseFlag => "release-flag",
        }
    }
}

/// One `[[atomics.protocol]]` block: a named module, its protocol kind, the
/// files it covers, and (for seqlock) the sequence-cell field names.
#[derive(Debug, Clone)]
pub struct AtomicProtocol {
    pub module: String,
    pub kind: ProtocolKind,
    pub paths: Vec<String>,
    /// Field names treated as the seqlock sequence cell (default `["seq"]`).
    pub seq: Vec<String>,
}

/// atomics-protocol pass configuration (disabled when `paths` is empty).
#[derive(Debug, Clone, Default)]
pub struct AtomicsConfig {
    /// Files (or directory prefixes) whose atomic sites are audited. Every
    /// site inside must fall in some protocol's paths.
    pub paths: Vec<String>,
    pub protocols: Vec<AtomicProtocol>,
}

/// reactor-readiness pass configuration (disabled when `entrypoints` is
/// empty).
#[derive(Debug, Clone, Default)]
pub struct ReactorConfig {
    /// Data-path function names the future reactor shards will own; the
    /// pass walks the name-call graph from these.
    pub entrypoints: Vec<String>,
    /// Callee names classified as blocking leaves (`lock`, `sleep`,
    /// `recv`, socket verbs, …).
    pub blocking: Vec<String>,
}

/// One wire-constant family: a hex literal prefix with a single defining
/// module (the wire-consts pass is disabled when none is configured).
#[derive(Debug, Clone)]
pub struct WireFamily {
    pub name: String,
    /// Hex prefix, e.g. `0x5A43` — any hex literal starting with these
    /// digits outside `defined_in` is flagged.
    pub prefix: String,
    pub defined_in: Vec<String>,
}

/// Full auditor configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes skipped entirely (relative to workspace root).
    pub exclude: Vec<String>,
    /// Valid `CopyLayer` names an `allow(copy)` waiver may cite.
    pub copy_layers: Vec<String>,
    pub modules: Vec<CopyPathModule>,
    pub unsafe_audit: UnsafeAudit,
    pub meter: MeterCoverage,
    pub lock_order: LockOrder,
    pub taint: TaintConfig,
    pub wire_families: Vec<WireFamily>,
    pub atomics: AtomicsConfig,
    pub reactor: ReactorConfig,
}

#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zc-audit.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<toml::TomlError> for ConfigError {
    fn from(e: toml::TomlError) -> Self {
        ConfigError(e.to_string())
    }
}

fn bad(msg: impl Into<String>) -> ConfigError {
    ConfigError(msg.into())
}

fn missing(ctx: &str, key: &str) -> ConfigError {
    bad(format!("{ctx}: missing `{key}`"))
}

fn opt_str_array(t: &mut Table, key: &str, ctx: &str) -> Result<Vec<String>, ConfigError> {
    t.remove(key).map_or(Ok(Vec::new()), |v| {
        v.as_str_array()
            .ok_or_else(|| bad(format!("{ctx}: `{key}` must be an array of strings")))
    })
}

fn str_array(t: &mut Table, key: &str, ctx: &str) -> Result<Vec<String>, ConfigError> {
    if t.contains_key(key) {
        opt_str_array(t, key, ctx)
    } else {
        Err(missing(ctx, key))
    }
}

fn string(t: &mut Table, key: &str, ctx: &str) -> Result<String, ConfigError> {
    match t.remove(key) {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(missing(ctx, key)),
    }
}

fn idioms(t: &mut Table, ctx: &str) -> Result<Vec<Idiom>, ConfigError> {
    str_array(t, "idioms", ctx)?
        .iter()
        .map(|s| Idiom::parse(s).ok_or_else(|| bad(format!("{ctx}: unknown idiom `{s}`"))))
        .collect()
}

/// Every reader takes the keys it knows out of its table, so a key left
/// over is misspelled or retired: an error, where skipping it would turn
/// its pass off without a word.
fn leftover(t: &Table, ctx: &str) -> Result<(), ConfigError> {
    match t.keys().next() {
        None => Ok(()),
        Some(k) if ctx.is_empty() => Err(bad(format!("unknown table `[{k}]`"))),
        Some(k) => Err(bad(format!("{ctx}: unknown key `{k}`"))),
    }
}

/// Take the `[name]` section out of `root` and read it as
/// `read(table, "[name]")`; an absent section reads as `T::default()`.
fn section<T: Default>(
    root: &mut Table,
    name: &str,
    read: impl FnOnce(&mut Table, &str) -> Result<T, ConfigError>,
) -> Result<T, ConfigError> {
    let Some(v) = root.remove(name) else {
        return Ok(T::default());
    };
    let Value::Table(mut t) = v else {
        return Err(bad(format!("`{name}` must be a table")));
    };
    let ctx = format!("[{name}]");
    let out = read(&mut t, &ctx)?;
    leftover(&t, &ctx)?;
    Ok(out)
}

/// Take the `[[section.key]]` entries out of `t` and read each as
/// `read(entry, "[[section.key]] #n")`; none when the key is absent.
fn entries<T>(
    t: &mut Table,
    section: &str,
    key: &str,
    mut read: impl FnMut(&mut Table, &str) -> Result<T, ConfigError>,
) -> Result<Vec<T>, ConfigError> {
    let list = t
        .remove(key)
        .map_or(Some(Vec::new()), Value::into_table_array);
    let list = list.ok_or_else(|| bad(format!("`{section}.{key}` must be an array of tables")))?;
    let mut out = Vec::new();
    for (i, mut e) in list.into_iter().enumerate() {
        let ctx = format!("[[{section}.{key}]] #{}", i + 1);
        out.push(read(&mut e, &ctx)?);
        leftover(&e, &ctx)?;
    }
    Ok(out)
}

impl Config {
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let mut root = toml::parse(src)?;
        let (exclude, copy_layers) = section(&mut root, "audit", |t, ctx| {
            let exclude = opt_str_array(t, "exclude", ctx)?;
            Ok(Some((exclude, str_array(t, "copy_layers", ctx)?)))
        })?
        .ok_or_else(|| bad("missing `[audit]` table with `copy_layers`"))?;

        let modules = section(&mut root, "copy_path", |t, _| {
            let modules = entries(t, "copy_path", "module", |m, ctx| {
                Ok(CopyPathModule {
                    name: string(m, "name", ctx)?,
                    paths: str_array(m, "paths", ctx)?,
                    idioms: idioms(m, ctx)?,
                })
            })?;
            if modules.is_empty() {
                return Err(bad("`[[copy_path.module]]` entries required"));
            }
            Ok(modules)
        })?;
        let unsafe_audit = section(&mut root, "unsafe_audit", |t, ctx| {
            Ok(UnsafeAudit {
                paths: str_array(t, "paths", ctx)?,
                deny_unsafe_op_roots: opt_str_array(t, "deny_unsafe_op_roots", ctx)?,
            })
        })?;
        let meter = section(&mut root, "meter_coverage", |t, ctx| {
            Ok(MeterCoverage {
                paths: str_array(t, "paths", ctx)?,
                markers: str_array(t, "markers", ctx)?,
            })
        })?;
        let lock_order = section(&mut root, "lock_order", |t, ctx| {
            Ok(LockOrder {
                paths: str_array(t, "paths", ctx)?,
                blocking: str_array(t, "blocking", ctx)?,
            })
        })?;
        let taint = section(&mut root, "taint", |t, ctx| {
            Ok(TaintConfig {
                paths: str_array(t, "paths", ctx)?,
                entrypoints: str_array(t, "entrypoints", ctx)?,
                clamps: str_array(t, "clamps", ctx)?,
                allocs: opt_str_array(t, "allocs", ctx)?,
            })
        })?;
        let wire_families = section(&mut root, "wire_consts", |t, _| {
            entries(t, "wire_consts", "family", |f, ctx| {
                let name = string(f, "name", ctx)?;
                let prefix = string(f, "prefix", ctx)?;
                if !prefix.starts_with("0x") {
                    return Err(bad(format!("{ctx}: `prefix` must be a 0x… hex literal")));
                }
                Ok(WireFamily {
                    name,
                    prefix,
                    defined_in: str_array(f, "defined_in", ctx)?,
                })
            })
        })?;
        let atomics = section(&mut root, "atomics", |t, ctx| {
            let paths = str_array(t, "paths", ctx)?;
            let protocols = entries(t, "atomics", "protocol", |p, ctx| {
                let module = string(p, "module", ctx)?;
                let kind_str = string(p, "kind", ctx)?;
                let kind = ProtocolKind::parse(&kind_str).ok_or_else(|| {
                    bad(format!(
                        "{ctx}: unknown protocol kind `{kind_str}` (expected one of \
                         refcount, seqlock, cas-roll, counter-relaxed, release-flag)"
                    ))
                })?;
                let paths = str_array(p, "paths", ctx)?;
                let mut seq = opt_str_array(p, "seq", ctx)?;
                if seq.is_empty() {
                    seq.push("seq".to_string());
                }
                Ok(AtomicProtocol {
                    module,
                    kind,
                    paths,
                    seq,
                })
            })?;
            Ok(AtomicsConfig { paths, protocols })
        })?;
        let reactor = section(&mut root, "reactor", |t, ctx| {
            Ok(ReactorConfig {
                entrypoints: str_array(t, "entrypoints", ctx)?,
                blocking: str_array(t, "blocking", ctx)?,
            })
        })?;
        leftover(&root, "")?;

        Ok(Config {
            exclude,
            copy_layers,
            modules,
            unsafe_audit,
            meter,
            lock_order,
            taint,
            wire_families,
            atomics,
            reactor,
        })
    }

    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| bad(format!("cannot read {}: {e}", path.display())))?;
        Config::parse(&src)
    }
}

/// Does `rel` (forward-slash relative path) match `pattern`? A pattern
/// ending in `/` is a directory prefix; anything else is an exact file path.
pub fn path_matches(rel: &str, pattern: &str) -> bool {
    if let Some(prefix) = pattern.strip_suffix('/') {
        rel.strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
            || rel.starts_with(pattern)
    } else {
        rel == pattern
    }
}

/// Does `rel` match any of `patterns`?
pub fn path_matches_any(rel: &str, patterns: &[String]) -> bool {
    patterns.iter().any(|p| path_matches(rel, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[audit]
exclude = ["tools/zc-audit/tests/fixtures/"]
copy_layers = ["AppFill", "Marshal", "Demarshal"]

[[copy_path.module]]
name = "buffers-zbytes"
paths = ["crates/buffers/src/zbytes.rs"]
idioms = ["to_vec", "clone", "copy_from_slice"]

[unsafe_audit]
paths = ["crates/buffers/src/"]
deny_unsafe_op_roots = ["crates/buffers/src/lib.rs"]

[meter_coverage]
paths = ["crates/buffers/src/aligned.rs"]
markers = ["meter", "CopyMeter", "record"]
"#;

    #[test]
    fn parses_sample() {
        let c = Config::parse(SAMPLE).unwrap();
        assert_eq!(c.copy_layers.len(), 3);
        assert_eq!(c.modules.len(), 1);
        assert_eq!(c.modules[0].idioms.len(), 3);
        assert_eq!(c.unsafe_audit.paths, vec!["crates/buffers/src/"]);
        assert_eq!(c.meter.markers.len(), 3);
    }

    #[test]
    fn parses_interproc_sections() {
        let doc = format!(
            "{SAMPLE}\n\
             [lock_order]\n\
             paths = [\"crates/\"]\n\
             blocking = [\"send_data\", \"connect\"]\n\
             \n\
             [[wire_consts.family]]\n\
             name = \"zc-tag\"\n\
             prefix = \"0x5A43\"\n\
             defined_in = [\"crates/cdr/src/wire.rs\"]\n"
        );
        let c = Config::parse(&doc).unwrap();
        assert_eq!(c.lock_order.paths, vec!["crates/"]);
        assert_eq!(c.lock_order.blocking.len(), 2);
        assert_eq!(c.wire_families.len(), 1);
        assert_eq!(c.wire_families[0].prefix, "0x5A43");
    }

    #[test]
    fn interproc_sections_default_off() {
        let c = Config::parse(SAMPLE).unwrap();
        assert!(c.lock_order.paths.is_empty());
        assert!(c.taint.paths.is_empty());
        assert!(c.wire_families.is_empty());
    }

    #[test]
    fn parses_taint_section() {
        let doc = format!(
            "{SAMPLE}\n\
             [taint]\n\
             paths = [\"crates/cdr/src/\", \"crates/giop/src/\"]\n\
             entrypoints = [\"decode\", \"read_frame\"]\n\
             clamps = [\"MAX_GIOP_MESSAGE\", \"bounded_capacity\", \"min\"]\n\
             allocs = [\"with_capacity\", \"acquire\"]\n"
        );
        let c = Config::parse(&doc).unwrap();
        assert_eq!(c.taint.paths.len(), 2);
        assert_eq!(c.taint.entrypoints, vec!["decode", "read_frame"]);
        assert_eq!(c.taint.clamps.len(), 3);
        assert_eq!(c.taint.allocs, vec!["with_capacity", "acquire"]);
    }

    #[test]
    fn parses_atomics_and_reactor_sections() {
        let doc = format!(
            "{SAMPLE}\n\
             [atomics]\n\
             paths = [\"crates/trace/src/\", \"crates/buffers/src/\"]\n\
             \n\
             [[atomics.protocol]]\n\
             module = \"trace-seqlock\"\n\
             kind = \"seqlock\"\n\
             paths = [\"crates/trace/src/recorder.rs\"]\n\
             seq = [\"seq\"]\n\
             \n\
             [[atomics.protocol]]\n\
             module = \"trace-windows\"\n\
             kind = \"cas-roll\"\n\
             paths = [\"crates/trace/src/windows.rs\"]\n\
             \n\
             [reactor]\n\
             entrypoints = [\"recv_message\", \"dispatch\"]\n\
             blocking = [\"lock\", \"sleep\", \"recv\"]\n"
        );
        let c = Config::parse(&doc).unwrap();
        assert_eq!(c.atomics.paths.len(), 2);
        assert_eq!(c.atomics.protocols.len(), 2);
        assert_eq!(c.atomics.protocols[0].kind, ProtocolKind::Seqlock);
        assert_eq!(c.atomics.protocols[0].seq, vec!["seq"]);
        assert_eq!(c.atomics.protocols[1].kind, ProtocolKind::CasRoll);
        // `seq` defaults to ["seq"] when omitted.
        assert_eq!(c.atomics.protocols[1].seq, vec!["seq"]);
        assert_eq!(c.reactor.entrypoints, vec!["recv_message", "dispatch"]);
        assert_eq!(c.reactor.blocking.len(), 3);
    }

    #[test]
    fn atomics_and_reactor_default_off() {
        let c = Config::parse(SAMPLE).unwrap();
        assert!(c.atomics.paths.is_empty() && c.atomics.protocols.is_empty());
        assert!(c.reactor.entrypoints.is_empty());
    }

    #[test]
    fn unknown_protocol_kind_rejected() {
        let doc = format!(
            "{SAMPLE}\n\
             [atomics]\n\
             paths = [\"crates/\"]\n\
             [[atomics.protocol]]\n\
             module = \"m\"\n\
             kind = \"lock-free-magic\"\n\
             paths = [\"crates/x.rs\"]\n"
        );
        let err = Config::parse(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown protocol kind"));
    }

    #[test]
    fn errors_name_the_section_and_key() {
        let err = |doc: &str| Config::parse(doc).unwrap_err().to_string();
        let cases = [
            ("", "missing `[audit]` table with `copy_layers`"),
            ("audit = 1", "`audit` must be a table"),
            ("[audit]\nexclude = []", "[audit]: missing `copy_layers`"),
            ("[audit]\ncopy_layers = 1", "[audit]: `copy_layers` must be an array of strings"),
            ("[audit]\ncopy_layers = []\n[copy_path]\nx = 1", "`[[copy_path.module]]` entries required"),
            ("[audit]\ncopy_layers = []\n[[copy_path.module]]\npaths = []", "[[copy_path.module]] #1: missing `name`"),
            ("[audit]\ncopy_layers = []\n[taint]\npaths = []", "[taint]: missing `entrypoints`"),
            ("[audit]\ncopy_layers = []\n[[copy_path.module]]\nname = \"m\"\npaths = []\nidioms = [\"memmove\"]", "[[copy_path.module]] #1: unknown idiom `memmove`"),
            ("[audit]\ncopy_layers = []\n[[wire_consts.family]]\nname = \"f\"\nprefix = \"5A\"", "[[wire_consts.family]] #1: `prefix` must be a 0x… hex literal"),
            ("[audit]\ncopy_layers = []\n[atomics]\npaths = []\n[[atomics.protocol]]\nmodule = \"m\"", "[[atomics.protocol]] #1: missing `kind`"),
            ("reactor = 1\n[audit]\ncopy_layers = []", "`reactor` must be a table"),
            // A misspelled or retired section or key is an error, not a
            // pass silently switched off.
            ("[audit]\ncopy_layers = []\n[tiant]\npaths = []", "unknown table `[tiant]`"),
            ("[audit]\ncopy_layers = []\n[zc_escape]\ntypes = []", "unknown table `[zc_escape]`"),
            ("[audit]\ncopy_layers = []\n[[wire_consts.enum]]\nname = \"E\"", "[wire_consts]: unknown key `enum`"),
            ("[audit]\ncopy_layers = []\ncopy_layer = []", "[audit]: unknown key `copy_layer`"),
            ("[audit]\ncopy_layers = []\n[taint]\npaths = []\nentrypoint = []\nentrypoints = []\nclamps = []", "[taint]: unknown key `entrypoint`"),
            ("[audit]\ncopy_layers = []\n[[copy_path.module]]\nname = \"m\"\npaths = []\nidioms = []\nidiom = []", "[[copy_path.module]] #1: unknown key `idiom`"),
        ];
        for (doc, want) in cases {
            assert_eq!(err(doc), format!("zc-audit.toml: {want}"), "{doc}");
        }
    }

    #[test]
    fn unknown_idiom_rejected() {
        let doc = SAMPLE.replace("\"to_vec\"", "\"memmove\"");
        assert!(Config::parse(&doc).is_err());
    }

    #[test]
    fn path_matching() {
        assert!(path_matches(
            "crates/buffers/src/zbytes.rs",
            "crates/buffers/src/zbytes.rs"
        ));
        assert!(path_matches(
            "crates/buffers/src/zbytes.rs",
            "crates/buffers/src/"
        ));
        assert!(path_matches(
            "crates/buffers/src/deep/x.rs",
            "crates/buffers/src/"
        ));
        assert!(!path_matches("crates/buffers2/src/x.rs", "crates/buffers/"));
        assert!(!path_matches(
            "crates/buffers/src/zbytes.rs",
            "crates/buffers/src/pool.rs"
        ));
    }
}
