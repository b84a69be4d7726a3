//! Objects: identity, state, and the binary object-translation format.
//!
//! Objects are serialized into storage records with a small self-describing
//! binary codec (the "object translation" of Figure 1). The format is
//! hand-rolled (length-prefixed fields, tag bytes) so it is stable,
//! inspectable and needs no external format crate.

use std::collections::BTreeMap;
use std::fmt;

use bytes::{Buf, BufMut};

/// Object identity. Allocated monotonically by the object store; stable
/// across restarts.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Oid(pub u64);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oid#{}", self.0)
    }
}

/// An attribute value (atomic types + object references, matching the
/// parameter restrictions of the paper's event system).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// IEEE-754 double.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Reference to another object.
    Ref(Oid),
    /// Null / absent.
    Null,
}

impl AttrValue {
    /// Type tag for the codec.
    fn tag(&self) -> u8 {
        match self {
            AttrValue::Int(_) => 0,
            AttrValue::Float(_) => 1,
            AttrValue::Bool(_) => 2,
            AttrValue::Str(_) => 3,
            AttrValue::Ref(_) => 4,
            AttrValue::Null => 5,
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float view (ints widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Reference view.
    pub fn as_ref_oid(&self) -> Option<Oid> {
        match self {
            AttrValue::Ref(o) => Some(*o),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Str(s) => write!(f, "{s:?}"),
            AttrValue::Ref(o) => write!(f, "{o}"),
            AttrValue::Null => f.write_str("null"),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::Int(v.into())
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<f32> for AttrValue {
    fn from(v: f32) -> Self {
        AttrValue::Float(v.into())
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<Oid> for AttrValue {
    fn from(v: Oid) -> Self {
        AttrValue::Ref(v)
    }
}

/// The persistent state of an object: its class and attribute map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObjectState {
    /// Class name.
    pub class: String,
    /// Attribute values (sorted map so the encoding is canonical).
    pub attrs: BTreeMap<String, AttrValue>,
}

impl ObjectState {
    /// A fresh object of `class` with no attributes set.
    pub fn new(class: &str) -> Self {
        ObjectState { class: class.to_string(), attrs: BTreeMap::new() }
    }

    /// Builder-style attribute setter.
    pub fn with(mut self, name: &str, value: impl Into<AttrValue>) -> Self {
        self.attrs.insert(name.to_string(), value.into());
        self
    }

    /// Reads an attribute.
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.get(name)
    }

    /// Sets an attribute.
    pub fn set(&mut self, name: &str, value: impl Into<AttrValue>) {
        match self.attrs.get_mut(name) {
            Some(slot) => *slot = value.into(),
            None => {
                self.attrs.insert(name.to_string(), value.into());
            }
        }
    }

    /// Exact length of the object-translation encoding.
    pub(crate) fn encoded_len(&self) -> usize {
        let attrs: usize = self
            .attrs
            .iter()
            .map(|(name, value)| {
                4 + name.len()
                    + 1
                    + match value {
                        AttrValue::Int(_) | AttrValue::Float(_) | AttrValue::Ref(_) => 8,
                        AttrValue::Bool(_) => 1,
                        AttrValue::Str(s) => 4 + s.len(),
                        AttrValue::Null => 0,
                    }
            })
            .sum();
        4 + self.class.len() + 4 + attrs
    }

    /// Appends the object-translation encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_str(out, &self.class);
        out.put_u32_le(self.attrs.len() as u32);
        for (name, value) in &self.attrs {
            put_str(out, name);
            out.put_u8(value.tag());
            match value {
                AttrValue::Int(i) => out.put_i64_le(*i),
                AttrValue::Float(f) => out.put_f64_le(*f),
                AttrValue::Bool(b) => out.put_u8(u8::from(*b)),
                AttrValue::Str(s) => put_str(out, s),
                AttrValue::Ref(o) => out.put_u64_le(o.0),
                AttrValue::Null => {}
            }
        }
    }

    /// Decodes from the object-translation format.
    pub fn decode(mut buf: &[u8]) -> Option<Self> {
        let class = get_str(&mut buf)?;
        if buf.remaining() < 4 {
            return None;
        }
        let n = buf.get_u32_le() as usize;
        let mut attrs = BTreeMap::new();
        for _ in 0..n {
            let name = get_str(&mut buf)?;
            if buf.remaining() < 1 {
                return None;
            }
            let tag = buf.get_u8();
            let value = match tag {
                0 => {
                    if buf.remaining() < 8 {
                        return None;
                    }
                    AttrValue::Int(buf.get_i64_le())
                }
                1 => {
                    if buf.remaining() < 8 {
                        return None;
                    }
                    AttrValue::Float(buf.get_f64_le())
                }
                2 => {
                    if buf.remaining() < 1 {
                        return None;
                    }
                    AttrValue::Bool(buf.get_u8() != 0)
                }
                3 => AttrValue::Str(get_str(&mut buf)?),
                4 => {
                    if buf.remaining() < 8 {
                        return None;
                    }
                    AttrValue::Ref(Oid(buf.get_u64_le()))
                }
                5 => AttrValue::Null,
                _ => return None,
            };
            attrs.insert(name, value);
        }
        Some(ObjectState { class, attrs })
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Option<String> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return None;
    }
    let (raw, rest) = buf.split_at(len);
    *buf = rest;
    std::str::from_utf8(raw).ok().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObjectState {
        ObjectState::new("STOCK")
            .with("symbol", "IBM")
            .with("price", 142.25)
            .with("qty", 100)
            .with("active", true)
            .with("broker", Oid(7))
            .with("note", AttrValue::Null)
    }

    fn encode(obj: &ObjectState) -> Vec<u8> {
        let mut out = Vec::new();
        obj.encode_into(&mut out);
        assert_eq!(out.len(), obj.encoded_len());
        out
    }

    #[test]
    fn encode_decode_roundtrip() {
        let obj = sample();
        let back = ObjectState::decode(&encode(&obj)).unwrap();
        assert_eq!(obj, back);
    }

    #[test]
    fn empty_object_roundtrip() {
        let obj = ObjectState::new("EMPTY");
        assert_eq!(ObjectState::decode(&encode(&obj)).unwrap(), obj);
    }

    #[test]
    fn truncated_bytes_fail_cleanly() {
        let bytes = encode(&sample());
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(ObjectState::decode(&bytes[..cut]).is_none(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn accessors_and_conversions() {
        let obj = sample();
        assert_eq!(obj.get("qty").unwrap().as_int(), Some(100));
        assert_eq!(obj.get("qty").unwrap().as_float(), Some(100.0));
        assert_eq!(obj.get("price").unwrap().as_float(), Some(142.25));
        assert_eq!(obj.get("symbol").unwrap().as_str(), Some("IBM"));
        assert_eq!(obj.get("broker").unwrap().as_ref_oid(), Some(Oid(7)));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn set_overwrites() {
        let mut obj = sample();
        obj.set("qty", 50);
        assert_eq!(obj.get("qty").unwrap().as_int(), Some(50));
    }

    #[test]
    fn unicode_strings_survive() {
        let obj = ObjectState::new("Ünïcode").with("名前", "société €");
        assert_eq!(ObjectState::decode(&encode(&obj)).unwrap(), obj);
    }
}
