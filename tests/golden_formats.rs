//! Golden bytes of every format that reaches disk or the wire.
//!
//! Each test writes one format from a fixed script and pins the result as
//! its length and `crc32`, the way the storage engine pins its WAL
//! (`storage::engine::log_bytes_of_a_fixed_script_are_pinned`). A change to
//! any layout — a field added, dropped, reordered or re-encoded — fails
//! here, so a format only changes on purpose. The formats:
//!
//! * a per-shard journal stream segment and the epoch fence log;
//! * a `ckpt-*.ck` checkpoint file;
//! * `catalog.log` holding one op of each [`CatalogOp`] variant;
//! * [`GraphSnapshot::encode`] of a half-detected SEQ in all four contexts;
//! * a binary (v2) wire frame of each opcode.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::log::LoggedEvent;
use sentinel_core::detector::{FenceKind, GraphSnapshot, LocalEventDetector, Value};
use sentinel_core::durable_store::{checkpoint, CatalogFile, CatalogOp};
use sentinel_core::durable_store::{DurableEngine, DurableOptions};
use sentinel_core::obs::json;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{parse_event_expr, ParamContext};
use sentinel_core::storage::crc32;
use sentinel_net::protocol::{self, Frame, Opcode};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinel-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_pinned(what: &str, bytes: &[u8], len: usize, crc: u32) {
    assert_eq!(
        (bytes.len(), crc32(bytes)),
        (len, crc),
        "{what}: got {} bytes, crc {:#010X}",
        bytes.len(),
        crc32(bytes)
    );
}

/// A detector holding half of `ab = a ; b` in every context: the
/// initiator `a` is buffered, nothing is detected yet.
fn half_detected() -> LocalEventDetector {
    let d = LocalEventDetector::new(3);
    for (name, sig) in [("a", "void a()"), ("b", "void b()")] {
        d.declare_primitive(name, "C", EventModifier::End, sig, PrimTarget::AnyInstance).unwrap();
    }
    let seq = d.define_named("ab", &parse_event_expr("(a ; b)").unwrap()).unwrap();
    for ctx in ParamContext::ALL {
        d.subscribe(seq, ctx, 1).unwrap();
    }
    let params = vec![(Arc::from("x"), Value::Int(41)), (Arc::from("s"), Value::str("IBM"))];
    d.notify_method("C", "void a()", EventModifier::End, 9, params, Some(7));
    d
}

#[test]
fn journal_stream_segment_and_fence_log_are_pinned() {
    let dir = tmp("journal");
    {
        let (eng, _) = DurableEngine::open(&dir, DurableOptions::default()).unwrap();
        let method = LoggedEvent::Method {
            class: "STOCK".into(),
            sig: "void set_price(float price)".into(),
            edge: EventModifier::End,
            oid: 42,
            params: vec![
                (Arc::from("price"), Value::Float(99.5)),
                (Arc::from("sym"), Value::str("IBM")),
                (Arc::from("active"), Value::Bool(true)),
                (Arc::from("ref"), Value::Oid(7)),
                (Arc::from("nothing"), Value::Null),
                (Arc::from("qty"), Value::Int(-3)),
            ],
            txn: Some(5),
            ts: 1,
        };
        let explicit =
            |ts| LoggedEvent::Explicit { name: "alert".into(), params: Vec::new(), txn: None, ts };
        eng.append_event(0, &method).unwrap();
        eng.append_event(0, &explicit(2)).unwrap();
        eng.append_fence(FenceKind::FlushTxn(5), 2).unwrap();
        eng.append_event(0, &explicit(3)).unwrap();
        eng.append_fence(FenceKind::AdvanceTime(50), 50).unwrap();
        eng.append_fence(FenceKind::Barrier, 50).unwrap();
        eng.append_event(0, &explicit(51)).unwrap();
        eng.flush().unwrap();
    }
    let segment = fs::read(dir.join("shard-0000-000000.seg")).unwrap();
    assert_pinned("stream segment", &segment, 309, 0x9B01_F823);
    let fences = fs::read(dir.join("fences.log")).unwrap();
    assert_pinned("fence log", &fences, 107, 0x1507_0B0D);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_file_is_pinned() {
    let dir = tmp("ckpt");
    checkpoint::write_checkpoint(&dir, 3, &half_detected().snapshot_state()).unwrap();
    let file = fs::read(dir.join("ckpt-0000000000000003.ck")).unwrap();
    assert_pinned("checkpoint", &file, 438, 0xDF2D_4DD1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn catalog_log_with_every_op_is_pinned() {
    let dir = tmp("catalog");
    let spec = json::Value::obj([
        ("name", json::Value::str("R1")),
        ("event", json::Value::str("e4")),
        ("context", json::Value::str("chronicle")),
        ("priority", json::Value::UInt(3)),
        ("action", json::Value::obj([("action", json::Value::str("count"))])),
    ]);
    let ops = [
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
        CatalogOp::DefineRule { spec, defined_at: 17 },
        CatalogOp::DisableRule { name: "R1".into() },
        CatalogOp::EnableRule { name: "R1".into(), defined_at: 23 },
        CatalogOp::DropRule { name: "R1".into() },
    ];
    {
        let (mut catalog, _) = CatalogFile::open(&dir).unwrap();
        for (i, op) in ops.iter().enumerate() {
            catalog.append(op, i as u64 * 2).unwrap();
        }
    }
    let file = fs::read(CatalogFile::path(&dir)).unwrap();
    assert_pinned("catalog.log", &file, 776, 0x91F7_47A3);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn graph_snapshot_encoding_is_pinned() {
    let snap = half_detected().snapshot_state();
    assert_eq!(snap.nodes.len(), 1, "only the SEQ holds state");
    let bytes = snap.encode();
    assert_pinned("graph snapshot", &bytes, 414, 0x1B20_1EB0);
    let decoded = GraphSnapshot::decode(bytes.clone()).unwrap();
    assert_eq!(decoded.encode(), bytes, "the pinned bytes decode and re-encode unchanged");
}

#[test]
fn binary_wire_frame_of_every_opcode_is_pinned() {
    let params =
        vec![(Arc::from("price"), Value::Float(99.5)), (Arc::from("sym"), Value::str("IBM"))];
    let payload = json::Value::obj([
        ("event", json::Value::str("tick")),
        ("params", protocol::params_to_json(&params)),
        ("txn", json::Value::UInt(7)),
        ("neg", json::Value::Int(-12345)),
        ("ok", json::Value::Bool(true)),
        ("none", json::Value::Null),
        ("list", json::Value::Arr(vec![json::Value::UInt(1), json::Value::str("two")])),
    ]);
    let mut bytes = Vec::new();
    for (i, op) in Opcode::ALL.into_iter().enumerate() {
        let frame = Frame::new(op, 1000 + i as u64, payload.clone());
        let encoded = protocol::encode_with(&frame, protocol::VERSION_BINARY).unwrap();
        assert_eq!(encoded[2], protocol::VERSION_BINARY);
        bytes.extend_from_slice(&encoded);
    }
    assert_pinned("v2 frames", &bytes, 2496, 0x10AD_6D3A);
}
