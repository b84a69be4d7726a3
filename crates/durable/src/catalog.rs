//! The persistent catalog: an append-only, checksummed journal of DDL —
//! class registrations, event declarations/definitions, and rule
//! define/enable/disable/drop — replayed on open to rebuild the `oodb`
//! schema, the Snoop event graph, and the rule set byte-for-byte.
//!
//! Each operation is stamped with `at_index`, the event-journal record
//! index current when the DDL executed. Recovery merge-applies catalog
//! ops and journal records in that order, so DDL issued mid-workload
//! (say, a rule defined after half its composite was signalled) replays
//! at exactly the same relative position — the `NOW` trigger cutoff and
//! context-counter transitions land where they did in the live run.
//!
//! Catalog appends are always fsynced: definitions are rare and losing
//! one would break replay of every later event.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use sentinel_obs::json;

use sentinel_storage::frame::{frames, put_frame, HEADER};

/// Catalog file name inside a data directory.
pub const CATALOG_FILE: &str = "catalog.log";

/// One durable DDL operation.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogOp {
    /// `register_class`: a reactive class with typed attributes and method
    /// signatures (attribute types by name, e.g. `"int"`).
    DefineClass {
        /// Class name.
        name: String,
        /// Parent class name.
        parent: String,
        /// `(attribute, type-name)` pairs.
        attrs: Vec<(String, String)>,
        /// Method signatures (bodies are re-registered by the application;
        /// closures cannot be persisted).
        methods: Vec<String>,
    },
    /// `declare_explicit_event`: a name-matched abstract event.
    DeclareExplicit {
        /// Event name.
        name: String,
    },
    /// `declare_event`: a method-event primitive.
    DeclarePrimitive {
        /// Event name.
        name: String,
        /// Monitored class.
        class: String,
        /// Invocation edge: `"begin"`, `"end"`, or `"both"`.
        edge: String,
        /// Canonical method signature.
        sig: String,
        /// Instance-level target oid (`None` = class-level).
        oid: Option<u64>,
    },
    /// `define_event`: a named composite from a Snoop expression.
    DefineEvent {
        /// Event name.
        name: String,
        /// Snoop event expression.
        expr: String,
    },
    /// `define_rule_spec`: a declarative rule (the JSON spec used by the
    /// wire protocol: name/event/context/coupling/priority/action).
    DefineRule {
        /// The rule spec object.
        spec: json::Value,
        /// `defined_at` tick drawn at live definition time — replay pins
        /// it so the `NOW` cutoff is byte-identical.
        defined_at: u64,
    },
    /// `enable_rule`, with the re-enable tick pinned like `DefineRule`.
    EnableRule {
        /// Rule name.
        name: String,
        /// The re-enable `defined_at` tick.
        defined_at: u64,
    },
    /// `disable_rule`.
    DisableRule {
        /// Rule name.
        name: String,
    },
    /// `drop_rule`.
    DropRule {
        /// Rule name.
        name: String,
    },
}

fn str_pairs(v: &json::Value) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    for pair in v.as_arr()? {
        let pair = pair.as_arr()?;
        if pair.len() != 2 {
            return None;
        }
        out.push((pair[0].as_str()?.to_string(), pair[1].as_str()?.to_string()));
    }
    Some(out)
}

fn str_list(v: &json::Value) -> Option<Vec<String>> {
    v.as_arr()?.iter().map(|s| Some(s.as_str()?.to_string())).collect()
}

impl CatalogOp {
    /// Renders the operation (with its journal position) as the JSON
    /// payload of one catalog frame.
    pub fn to_json(&self, at_index: u64) -> json::Value {
        let at = ("at_index", json::Value::UInt(at_index));
        match self {
            CatalogOp::DefineClass { name, parent, attrs, methods } => json::Value::obj([
                ("op", json::Value::str("define_class")),
                at,
                ("name", json::Value::str(name)),
                ("parent", json::Value::str(parent)),
                (
                    "attrs",
                    json::Value::Arr(
                        attrs
                            .iter()
                            .map(|(n, t)| {
                                json::Value::Arr(vec![json::Value::str(n), json::Value::str(t)])
                            })
                            .collect(),
                    ),
                ),
                ("methods", json::Value::Arr(methods.iter().map(json::Value::str).collect())),
            ]),
            CatalogOp::DeclareExplicit { name } => json::Value::obj([
                ("op", json::Value::str("declare_explicit")),
                at,
                ("name", json::Value::str(name)),
            ]),
            CatalogOp::DeclarePrimitive { name, class, edge, sig, oid } => json::Value::obj([
                ("op", json::Value::str("declare_primitive")),
                at,
                ("name", json::Value::str(name)),
                ("class", json::Value::str(class)),
                ("edge", json::Value::str(edge)),
                ("sig", json::Value::str(sig)),
                (
                    "oid",
                    match oid {
                        Some(o) => json::Value::UInt(*o),
                        None => json::Value::Null,
                    },
                ),
            ]),
            CatalogOp::DefineEvent { name, expr } => json::Value::obj([
                ("op", json::Value::str("define_event")),
                at,
                ("name", json::Value::str(name)),
                ("expr", json::Value::str(expr)),
            ]),
            CatalogOp::DefineRule { spec, defined_at } => json::Value::obj([
                ("op", json::Value::str("define_rule")),
                at,
                ("spec", spec.clone()),
                ("defined_at", json::Value::UInt(*defined_at)),
            ]),
            CatalogOp::EnableRule { name, defined_at } => json::Value::obj([
                ("op", json::Value::str("enable_rule")),
                at,
                ("name", json::Value::str(name)),
                ("defined_at", json::Value::UInt(*defined_at)),
            ]),
            CatalogOp::DisableRule { name } => json::Value::obj([
                ("op", json::Value::str("disable_rule")),
                at,
                ("name", json::Value::str(name)),
            ]),
            CatalogOp::DropRule { name } => json::Value::obj([
                ("op", json::Value::str("drop_rule")),
                at,
                ("name", json::Value::str(name)),
            ]),
        }
    }

    /// Parses one catalog frame payload back into `(at_index, op)`;
    /// `None` on any structural mismatch.
    pub fn from_json(v: &json::Value) -> Option<(u64, CatalogOp)> {
        let at_index = v.get("at_index")?.as_u64()?;
        let name = |v: &json::Value| Some(v.get("name")?.as_str()?.to_string());
        let op = match v.get("op")?.as_str()? {
            "define_class" => CatalogOp::DefineClass {
                name: name(v)?,
                parent: v.get("parent")?.as_str()?.to_string(),
                attrs: str_pairs(v.get("attrs")?)?,
                methods: str_list(v.get("methods")?)?,
            },
            "declare_explicit" => CatalogOp::DeclareExplicit { name: name(v)? },
            "declare_primitive" => CatalogOp::DeclarePrimitive {
                name: name(v)?,
                class: v.get("class")?.as_str()?.to_string(),
                edge: v.get("edge")?.as_str()?.to_string(),
                sig: v.get("sig")?.as_str()?.to_string(),
                oid: match v.get("oid")? {
                    json::Value::Null => None,
                    other => Some(other.as_u64()?),
                },
            },
            "define_event" => CatalogOp::DefineEvent {
                name: name(v)?,
                expr: v.get("expr")?.as_str()?.to_string(),
            },
            "define_rule" => CatalogOp::DefineRule {
                spec: v.get("spec")?.clone(),
                defined_at: v.get("defined_at")?.as_u64()?,
            },
            "enable_rule" => {
                CatalogOp::EnableRule { name: name(v)?, defined_at: v.get("defined_at")?.as_u64()? }
            }
            "disable_rule" => CatalogOp::DisableRule { name: name(v)? },
            "drop_rule" => CatalogOp::DropRule { name: name(v)? },
            _ => return None,
        };
        Some((at_index, op))
    }
}

/// The open catalog file, positioned for appending.
#[derive(Debug)]
pub struct CatalogFile {
    file: File,
}

/// What opening a catalog found.
#[derive(Debug, Default)]
pub struct CatalogRecovery {
    /// Replayable `(at_index, op)` pairs, in append order.
    pub ops: Vec<(u64, CatalogOp)>,
    /// Bytes discarded from a torn/corrupt tail.
    pub truncated_bytes: u64,
}

impl CatalogFile {
    /// Path of the catalog inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(CATALOG_FILE)
    }

    /// Opens (creating if absent) the catalog in `dir`, replays its valid
    /// prefix, and truncates any torn tail so appends resume cleanly.
    /// Frames that hold undecodable JSON stop the scan like a bad
    /// checksum would — everything after them is untrusted.
    pub fn open(dir: &Path) -> io::Result<(CatalogFile, CatalogRecovery)> {
        let path = Self::path(dir);
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let mut recovery = CatalogRecovery::default();
        let mut valid_len = 0u64;
        for (_, payload) in frames(&data) {
            let parsed = std::str::from_utf8(payload)
                .ok()
                .and_then(|text| json::Value::parse(text).ok())
                .and_then(|v| CatalogOp::from_json(&v));
            match parsed {
                Some(pair) => {
                    valid_len += (HEADER + payload.len()) as u64;
                    recovery.ops.push(pair);
                }
                None => break,
            }
        }
        recovery.truncated_bytes = (data.len() as u64).saturating_sub(valid_len);
        file.set_len(valid_len)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((CatalogFile { file }, recovery))
    }

    /// Appends one operation and fsyncs. Returns the payload size.
    pub fn append(&mut self, op: &CatalogOp, at_index: u64) -> io::Result<u64> {
        let payload = op.to_json(at_index).to_string();
        let mut buf = Vec::with_capacity(payload.len() + HEADER);
        put_frame(&mut buf, |b| b.extend_from_slice(payload.as_bytes()));
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        Ok(payload.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<CatalogOp> {
        vec![
            CatalogOp::DefineClass {
                name: "STOCK".into(),
                parent: "REACTIVE".into(),
                attrs: vec![("price".into(), "float".into()), ("qty".into(), "int".into())],
                methods: vec!["void set_price(float price)".into()],
            },
            CatalogOp::DeclareExplicit { name: "alert".into() },
            CatalogOp::DeclarePrimitive {
                name: "set_price".into(),
                class: "STOCK".into(),
                edge: "end".into(),
                sig: "void set_price(float price)".into(),
                oid: Some(42),
            },
            CatalogOp::DefineEvent { name: "e4".into(), expr: "(set_price ; alert)".into() },
            CatalogOp::DefineRule {
                spec: json::Value::obj([
                    ("name", json::Value::str("R1")),
                    ("event", json::Value::str("e4")),
                ]),
                defined_at: 17,
            },
            CatalogOp::DisableRule { name: "R1".into() },
            CatalogOp::EnableRule { name: "R1".into(), defined_at: 23 },
            CatalogOp::DropRule { name: "R1".into() },
        ]
    }

    #[test]
    fn ops_roundtrip_through_json() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let rendered = op.to_json(i as u64).to_string();
            let parsed = json::Value::parse(&rendered).unwrap();
            let (at, back) = CatalogOp::from_json(&parsed).unwrap();
            assert_eq!(at, i as u64);
            assert_eq!(back, op, "op {i}");
        }
    }

    #[test]
    fn file_roundtrip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("sentinel-cat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ops = sample_ops();
        {
            let (mut cat, rec) = CatalogFile::open(&dir).unwrap();
            assert!(rec.ops.is_empty());
            for (i, op) in ops.iter().enumerate() {
                cat.append(op, i as u64).unwrap();
            }
        }
        // Tear the file a few bytes short.
        let path = CatalogFile::path(&dir);
        let len = std::fs::metadata(&path).unwrap().len();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..len as usize - 5]).unwrap();

        let (_cat, rec) = CatalogFile::open(&dir).unwrap();
        assert_eq!(rec.ops.len(), ops.len() - 1, "torn final record dropped");
        assert!(rec.truncated_bytes > 0);
        for ((at, op), (i, want)) in rec.ops.iter().zip(ops.iter().enumerate()) {
            assert_eq!(*at, i as u64);
            assert_eq!(op, want);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
