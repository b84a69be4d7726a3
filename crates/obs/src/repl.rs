//! Replication observability: the plain-data `replication` stats section
//! a clustered node merges into its `SentinelStats` JSON.
//!
//! A **primary** fills the `followers` list from its replication log's
//! per-follower ack watermarks; a **replica** fills `applied` / `primary`
//! / `last_contact_ms` from its apply loop. Either side's `tip` is its
//! local replication-log length, so `tip - applied` is lag in log entries
//! and the sampled delta of `applied` is the follower apply rate.

use crate::json;

/// One follower's lag as seen by the primary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FollowerLag {
    /// Follower name (from its subscribe).
    pub name: String,
    /// Log sequence the follower has applied (entries `< applied`).
    pub applied: u64,
    /// `tip - applied` at snapshot time.
    pub lag: u64,
    /// Milliseconds since the follower's last ack.
    pub age_ms: u64,
}

/// Plain-data snapshot of a node's replication state (the `replication`
/// stats section).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicationStats {
    /// `"primary"` or `"replica"`.
    pub role: String,
    /// Local replication-log tip (entries pushed so far).
    pub tip: u64,
    /// Per-follower ack state (primary side; empty on a replica).
    pub followers: Vec<FollowerLag>,
    /// Apply watermark (replica side: entries of the primary's log
    /// applied locally; 0 on a primary).
    pub applied: u64,
    /// Total entries applied by the local apply loop (replica side).
    pub applied_entries: u64,
    /// The primary this replica follows (replica side).
    pub primary: Option<String>,
    /// Milliseconds since the replica last heard from its primary.
    pub last_contact_ms: Option<u64>,
}

impl ReplicationStats {
    /// Renders as a JSON object (see [`crate::json`]); each follower's
    /// name is its element's `label`.
    pub fn to_json(&self) -> json::Value {
        json::Value::obj([
            ("role", json::Value::str(&self.role)),
            ("tip", json::Value::UInt(self.tip)),
            (
                "followers",
                json::Value::Arr(
                    self.followers
                        .iter()
                        .map(|f| {
                            json::Value::obj([
                                ("label", json::Value::str(&f.name)),
                                ("applied", json::Value::UInt(f.applied)),
                                ("lag", json::Value::UInt(f.lag)),
                                ("age_ms", json::Value::UInt(f.age_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("applied", json::Value::UInt(self.applied)),
            ("applied_entries", json::Value::UInt(self.applied_entries)),
            (
                "primary",
                match &self.primary {
                    Some(p) => json::Value::str(p),
                    None => json::Value::Null,
                },
            ),
            ("last_contact_ms", self.last_contact_ms.map_or(json::Value::Null, json::Value::UInt)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let s = ReplicationStats {
            role: "primary".into(),
            tip: 10,
            followers: vec![FollowerLag { name: "f1".into(), applied: 7, lag: 3, age_ms: 500 }],
            ..ReplicationStats::default()
        };
        let j = s.to_json();
        assert_eq!(j.get("role").and_then(json::Value::as_str), Some("primary"));
        assert_eq!(j.get("tip").and_then(json::Value::as_u64), Some(10));
        let followers = j.get("followers").and_then(json::Value::as_arr).unwrap();
        assert_eq!(followers[0].get("label").and_then(json::Value::as_str), Some("f1"));
        assert_eq!(followers[0].get("lag").and_then(json::Value::as_u64), Some(3));
        assert_eq!(followers[0].get("age_ms").and_then(json::Value::as_u64), Some(500));
        assert!(matches!(j.get("primary"), Some(json::Value::Null)));
        // Round-trips through the parser (what the wire does).
        assert_eq!(json::Value::parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn replica_side_fields() {
        let s = ReplicationStats {
            role: "replica".into(),
            tip: 4,
            applied: 9,
            applied_entries: 9,
            primary: Some("127.0.0.1:7878".into()),
            last_contact_ms: Some(100),
            ..ReplicationStats::default()
        };
        let j = s.to_json();
        assert_eq!(j.get("applied").and_then(json::Value::as_u64), Some(9));
        assert_eq!(j.get("last_contact_ms").and_then(json::Value::as_u64), Some(100));
        assert_eq!(j.get("primary").and_then(json::Value::as_str), Some("127.0.0.1:7878"));
    }
}
