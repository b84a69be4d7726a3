//! # sentinel-net
//!
//! Client/server subsystem for Sentinel: the network boundary that lets
//! many applications signal events, manage rules, and query one shared
//! detector/rulebase over TCP — the paper's library-linked Sentinel
//! (§2.3) recast as a served system, as production reactive-rule engines
//! deploy (rule engines as networked CEP services).
//!
//! The layers:
//!
//! * [`protocol`] — a versioned, length-prefixed framing with two wire
//!   versions behind one 16-byte header: v1 JSON payload bodies (a
//!   session's `Hello`) and v2 compact binary bodies ([`codec`], every
//!   later frame); strict size limits, total (never-panicking) decoding;
//! * [`codec`] — the CBOR-style binary payload codec v2 frames carry;
//! * [`server`] — [`server::NetServer`] serving a
//!   [`sentinel_core::ServeHandle`] from an epoll [`reactor`]
//!   (nonblocking sockets, bounded write queues, stall eviction) — named
//!   sessions, the full command set, per-session/global backpressure,
//!   graceful drain-on-shutdown;
//! * [`client`] — blocking [`client::SentinelClient`] with request
//!   pipelining by request id, per-connection request-id spaces,
//!   the binary codec granted at `Hello`, reconnect-with-backoff, and typed
//!   errors separating transport failures from server-reported ones.
//!
//! No external async runtime and no libc crate: the workspace builds
//! offline, so the reactor binds the few epoll/eventfd syscalls it needs
//! by hand and everything else is `std::net`, OS threads, and bounded
//! queues.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod codec;
mod commands;
pub mod protocol;
mod reactor;
pub mod server;

pub use client::{BatchSignal, ClientCodec, ClientError, Pending, RuleSpec, SentinelClient};
pub use protocol::{DecodeError, EncodeError, Frame, Opcode, WireError};
pub use server::{NetServer, ServerConfig};
