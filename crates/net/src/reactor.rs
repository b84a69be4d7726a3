//! Epoll readiness reactor: the server's event-loop backend.
//!
//! A small, fixed set of event loops ([`crate::server::ServerConfig::event_loops`])
//! multiplexes every connection over nonblocking sockets — no thread per
//! connection, no external async runtime (the workspace is offline, so
//! the epoll/eventfd syscalls are bound by hand in [`sys`]). Loop 0 also
//! owns the listener and hands accepted sockets to the other loops
//! round-robin through a mailbox + eventfd wakeup.
//!
//! Each connection is a tiny state machine:
//!
//! * a **read buffer** accumulates partial frames; every readiness event
//!   drains the socket (up to `MAX_READS_PER_EVENT` reads) and, after
//!   each read, decodes as many complete frames as arrived
//!   ([`protocol::decode_with`] is resumable by construction — `Ok(None)`
//!   means "need more bytes"). Frames are decoded at an offset into the
//!   buffer and their bytes dropped once per read;
//! * a **bounded write queue**: each reply is encoded straight onto it
//!   ([`protocol::encode_into`]), and the replies of one read go out in
//!   one `write(2)` after that read's frames are executed — so k
//!   pipelined requests cost one send, not k. Flushing per read, not per
//!   event, means at most one 64 KiB read's replies queue between
//!   flushes. A short write registers `EPOLLOUT` interest and the
//!   remainder goes out when the socket drains (partial-write
//!   resumption); queue overflow evicts the connection
//!   (`overflow_evictions`) rather than buffering without bound, so the
//!   bound catches a peer that stops reading, not one that pipelines.
//!   A `Shutdown` acknowledgment is flushed before the server is told to
//!   stop, and a read that returns EOF flushes the queued replies before
//!   the connection is evicted (a half-closed peer gets every answer);
//! * a **progress stamp** updated by every productive read/write. A
//!   connection sitting mid-frame or mid-write past
//!   [`crate::server::ServerConfig::stall_timeout`] is evicted
//!   (`stall_evictions`) — this is what reclaims half-open peers
//!   (SIGSTOP'd, cable-pulled) that the TCP stack alone would keep
//!   forever. *Idle* connections — no partial frame, nothing queued —
//!   are never evicted, which is what makes 10k+ mostly-idle
//!   connections cheap (the C10K sweep in `sentinel-loadgen`).
//!
//! Commands run through [`crate::commands`]: sync signals inline on the
//! loop, async signals into the pump queue; a plain HTTP request on the
//! same port is sniffed and answered (`/metrics`).

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::raw::c_int;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::commands::{self, Outcome, Session};
use crate::protocol::{self, Frame};
use crate::server::State;

/// Raw bindings for the five syscalls the reactor needs. Linux-only, like
/// epoll itself.
mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    /// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel
    /// ABI packs it (no padding between `events` and `data`); elsewhere
    /// the natural C layout matches.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

/// Epoll token for a loop's eventfd waker.
const TOKEN_WAKER: u64 = u64::MAX;
/// Epoll token for the listener (loop 0 only).
const TOKEN_LISTENER: u64 = u64::MAX - 1;
/// Reads drained per readiness event before yielding to other
/// connections (level-triggered epoll re-reports leftover data).
const MAX_READS_PER_EVENT: usize = 32;

fn ep_ctl(epfd: RawFd, op: c_int, fd: RawFd, events: u32, data: u64) -> std::io::Result<()> {
    let mut ev = sys::EpollEvent { events, data };
    let rc = unsafe { sys::epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// An eventfd another thread writes to pull an event loop out of
/// `epoll_wait` (new connections in the mailbox, or server shutdown).
struct Waker {
    fd: RawFd,
}

impl Waker {
    fn new() -> std::io::Result<Waker> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    fn wake(&self) {
        let one: u64 = 1;
        let _ =
            unsafe { sys::write(self.fd, &one as *const u64 as *const std::os::raw::c_void, 8) };
    }

    fn drain(&self) {
        let mut buf: u64 = 0;
        loop {
            let n =
                unsafe { sys::read(self.fd, &mut buf as *mut u64 as *mut std::os::raw::c_void, 8) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.fd);
        }
    }
}

/// The cross-thread face of one event loop: where loop 0 parks accepted
/// sockets for it, plus the waker that tells it to look.
struct LoopShared {
    inbox: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

/// The running reactor backend: its event-loop threads and their wakers.
pub(crate) struct Reactor {
    loops: Vec<LoopHandle>,
}

struct LoopHandle {
    thread: JoinHandle<()>,
    shared: Arc<LoopShared>,
}

impl Reactor {
    /// Spawns `cfg.event_loops` loops (min 1); loop 0 adopts `listener`.
    pub(crate) fn start(listener: TcpListener, state: Arc<State>) -> std::io::Result<Reactor> {
        let n = state.cfg.event_loops.max(1);
        listener.set_nonblocking(true)?;
        let mut shareds = Vec::with_capacity(n);
        for _ in 0..n {
            shareds
                .push(Arc::new(LoopShared { inbox: Mutex::new(Vec::new()), waker: Waker::new()? }));
        }
        let shareds = Arc::new(shareds);
        state.metrics.event_loops.set(n as u64);
        let mut listener = Some(listener);
        let mut loops = Vec::with_capacity(n);
        for index in 0..n {
            let l = if index == 0 { listener.take() } else { None };
            let el = EventLoop::new(index, l, state.clone(), shareds.clone())?;
            let thread = std::thread::Builder::new()
                .name(format!("sentinel-net-loop{index}"))
                .spawn(move || el.run())
                .expect("spawn event loop");
            loops.push(LoopHandle { thread, shared: shareds[index].clone() });
        }
        Ok(Reactor { loops })
    }

    /// Wakes every loop (they observe the server's shutdown flag, flush
    /// what they can, and exit) and joins them.
    pub(crate) fn shutdown(self) {
        for h in &self.loops {
            h.shared.waker.wake();
        }
        for h in self.loops {
            let _ = h.thread.join();
        }
    }
}

/// Eviction verdict: the connection must be closed now. The site that
/// decides also records *why* (stall/overflow metrics); `Evict` itself
/// just unwinds to the loop's bookkeeping.
struct Evict;

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    token: u64,
    session: Option<Session>,
    /// Accumulated inbound bytes; a prefix of zero or more complete
    /// frames plus at most one partial frame (or an HTTP header block).
    rbuf: Vec<u8>,
    /// Outbound bytes not yet accepted by the socket; `woff` is how far
    /// the kernel has taken them.
    wbuf: Vec<u8>,
    woff: usize,
    /// Whether `EPOLLOUT` interest is currently registered.
    want_write: bool,
    /// Close once `wbuf` fully drains (HTTP responses, fatal errors).
    close_after_flush: bool,
    /// Last productive read or write; the stall scan compares this.
    last_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Conn {
        Conn {
            stream,
            token,
            session: None,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            woff: 0,
            want_write: false,
            close_after_flush: false,
            last_progress: Instant::now(),
        }
    }

    fn pending_out(&self) -> usize {
        self.wbuf.len() - self.woff
    }

    /// Drains the socket and executes every complete frame that arrived,
    /// answering each read with one write of all the replies it earned.
    fn readable(
        &mut self,
        state: &Arc<State>,
        epfd: RawFd,
        scratch: &mut [u8],
    ) -> Result<(), Evict> {
        for _ in 0..MAX_READS_PER_EVENT {
            match (&self.stream).read(scratch) {
                Ok(0) => {
                    // Peer hung up (or half-closed): hand over what its
                    // last frames earned before the connection goes.
                    let _ = self.flush(state, epfd);
                    return Err(Evict);
                }
                Ok(n) => {
                    state.metrics.bytes_in.add(n as u64);
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    self.last_progress = Instant::now();
                    // Decode and answer between reads, not once per event,
                    // so at most one read's replies queue between flushes:
                    // a pipelining peer can't balloon `rbuf` or `wbuf`.
                    self.process(state, epfd)?;
                    if self.pending_out() > 0 {
                        self.flush(state, epfd)?;
                    }
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(Evict),
            }
        }
        Ok(())
    }

    /// Decodes and executes everything complete in `rbuf` (or serves one
    /// sniffed HTTP request), queueing the replies for the caller's flush.
    /// Frames are decoded at an offset and their bytes dropped once, at
    /// the end.
    fn process(&mut self, state: &Arc<State>, epfd: RawFd) -> Result<(), Evict> {
        self.compact_out();
        if commands::is_http_prefix(&self.rbuf) {
            if let Some(end) = self.rbuf.windows(4).position(|w| w == b"\r\n\r\n") {
                let resp = commands::http_response(state, &self.rbuf[..end]);
                self.rbuf.clear();
                self.close_after_flush = true;
                self.wbuf.extend_from_slice(&resp);
                return self.admit(state);
            }
            if self.rbuf.len() > 16 * 1024 {
                return Err(Evict); // runaway header block
            }
            return Ok(());
        }
        let mut at = 0;
        // A terminal reply (`close_after_flush`) ignores the rest.
        while !self.close_after_flush {
            match protocol::decode_with(&self.rbuf[at..], protocol::VERSION_MAX) {
                Ok(Some((frame, wire, used))) => {
                    at += used;
                    state.metrics.frames_in.inc();
                    match commands::execute(state, &mut self.session, frame) {
                        Outcome::Reply(f) => self.enqueue_frame(state, &f, wire)?,
                        Outcome::ReplyClose(f) => {
                            self.enqueue_frame(state, &f, wire)?;
                            self.close_after_flush = true;
                        }
                        Outcome::ReplyShutdown(f) => {
                            // Flush the acknowledgment *before* signaling
                            // shutdown so the requester's reply can't be
                            // cut off by the teardown it asked for.
                            self.enqueue_frame(state, &f, wire)?;
                            self.flush(state, epfd)?;
                            let _ = state.shutdown_tx.send(());
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Corrupt stream: report once, then hang up — resync
                    // inside a length-prefixed stream is impossible.
                    state.metrics.decode_errors.inc();
                    let f = commands::err_frame(0, "decode", &e.to_string());
                    self.close_after_flush = true;
                    self.enqueue_frame(state, &f, protocol::VERSION)?;
                }
            }
        }
        self.rbuf.drain(..at);
        Ok(())
    }

    /// Encodes a response in the request's wire version straight onto the
    /// write queue. An oversized body degrades to an error frame.
    fn enqueue_frame(&mut self, state: &Arc<State>, frame: &Frame, wire: u8) -> Result<(), Evict> {
        if protocol::encode_into(frame, wire, &mut self.wbuf).is_err() {
            let fb =
                commands::err_frame(frame.request_id, "oversized", "response exceeds frame limit");
            protocol::encode_into(&fb, wire, &mut self.wbuf).expect("error frame fits in a frame");
        }
        state.metrics.frames_out.inc();
        self.admit(state)
    }

    /// Drops the written prefix of the write queue once it is all sent or
    /// has grown past 64 KiB, so appends don't grow it without bound.
    fn compact_out(&mut self) {
        if self.woff == self.wbuf.len() {
            self.wbuf.clear();
            self.woff = 0;
        } else if self.woff > 64 * 1024 {
            self.wbuf.drain(..self.woff);
            self.woff = 0;
        }
    }

    /// Holds the write queue to its bound after an append.
    fn admit(&self, state: &Arc<State>) -> Result<(), Evict> {
        let pending = self.pending_out();
        // The cap always admits one maximum-size frame so a single big
        // response (e.g. a replication snapshot) can never evict on its
        // own — the queue bounds *accumulation* against slow readers.
        let cap =
            state.cfg.max_write_queue.max(protocol::MAX_PAYLOAD + protocol::HEADER_LEN + 1024);
        if pending > cap {
            state.metrics.overflow_evictions.inc();
            return Err(Evict);
        }
        state.metrics.write_queue_hwm.set(pending as u64);
        Ok(())
    }

    /// Writes queued bytes until done or the socket pushes back, managing
    /// `EPOLLOUT` interest either way.
    fn flush(&mut self, state: &Arc<State>, epfd: RawFd) -> Result<(), Evict> {
        while self.woff < self.wbuf.len() {
            match (&self.stream).write(&self.wbuf[self.woff..]) {
                Ok(0) => return Err(Evict),
                Ok(n) => {
                    self.woff += n;
                    state.metrics.write_calls.inc();
                    state.metrics.bytes_out.add(n as u64);
                    self.last_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    state.metrics.partial_writes.inc();
                    if !self.want_write {
                        self.want_write = true;
                        let _ = ep_ctl(
                            epfd,
                            sys::EPOLL_CTL_MOD,
                            self.stream.as_raw_fd(),
                            sys::EPOLLIN | sys::EPOLLOUT,
                            self.token,
                        );
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(Evict),
            }
        }
        self.wbuf.clear();
        self.woff = 0;
        if self.want_write {
            self.want_write = false;
            let _ =
                ep_ctl(epfd, sys::EPOLL_CTL_MOD, self.stream.as_raw_fd(), sys::EPOLLIN, self.token);
        }
        if self.close_after_flush {
            return Err(Evict); // graceful close: everything was delivered
        }
        Ok(())
    }
}

/// One event loop: an epoll instance, its connections, and (for loop 0)
/// the listener.
struct EventLoop {
    index: usize,
    epfd: RawFd,
    listener: Option<TcpListener>,
    state: Arc<State>,
    shareds: Arc<Vec<Arc<LoopShared>>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Round-robin cursor for handing accepted sockets across loops.
    rr: usize,
}

impl EventLoop {
    fn new(
        index: usize,
        listener: Option<TcpListener>,
        state: Arc<State>,
        shareds: Arc<Vec<Arc<LoopShared>>>,
    ) -> std::io::Result<EventLoop> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        ep_ctl(epfd, sys::EPOLL_CTL_ADD, shareds[index].waker.fd, sys::EPOLLIN, TOKEN_WAKER)?;
        if let Some(l) = &listener {
            ep_ctl(epfd, sys::EPOLL_CTL_ADD, l.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
        }
        Ok(EventLoop {
            index,
            epfd,
            listener,
            state,
            shareds,
            conns: HashMap::new(),
            next_token: 0,
            rr: 0,
        })
    }

    fn run(mut self) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let mut scratch = vec![0u8; 64 * 1024];
        let stall = self.state.cfg.stall_timeout;
        // Wait granularity: fine enough to enforce the stall timeout,
        // coarse enough that an idle loop barely wakes.
        let tick_ms =
            if stall.is_zero() { 500 } else { (stall.as_millis() / 4).clamp(10, 500) as c_int };
        let mut last_scan = Instant::now();
        loop {
            let n = unsafe { sys::epoll_wait(self.epfd, events.as_mut_ptr(), 256, tick_ms) };
            self.state.metrics.epoll_wakeups.inc();
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if n > 0 {
                for ev in events.iter().take(n as usize) {
                    let ev = *ev; // copy out of the packed array
                    match ev.data {
                        TOKEN_WAKER => {
                            self.shareds[self.index].waker.drain();
                            self.adopt_inbox();
                        }
                        TOKEN_LISTENER => self.accept_ready(),
                        token => self.conn_ready(token, ev.events, &mut scratch),
                    }
                }
            }
            if !stall.is_zero() && last_scan.elapsed().as_millis() >= tick_ms as u128 {
                last_scan = Instant::now();
                self.scan_stalls(stall);
            }
        }
        self.drain_on_shutdown();
        unsafe {
            sys::close(self.epfd);
        }
    }

    /// Registers connections other loops handed us.
    fn adopt_inbox(&mut self) {
        let streams: Vec<TcpStream> = {
            let mut inbox = self.shareds[self.index].inbox.lock();
            inbox.drain(..).collect()
        };
        for stream in streams {
            self.register_conn(stream);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.conn_closed();
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if ep_ctl(self.epfd, sys::EPOLL_CTL_ADD, stream.as_raw_fd(), sys::EPOLLIN, token).is_err() {
            self.conn_closed();
            return;
        }
        self.conns.insert(token, Conn::new(stream, token));
    }

    /// Accepts every pending connection; applies the connection cap and
    /// deals sockets across loops round-robin.
    fn accept_ready(&mut self) {
        let mut accepted = Vec::new();
        if let Some(l) = &self.listener {
            loop {
                match l.accept() {
                    Ok((stream, _)) => accepted.push(stream),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        for stream in accepted {
            if self.state.shutdown.load(Ordering::SeqCst) {
                continue; // drop: closing
            }
            let active = self.state.active_conns.load(Ordering::SeqCst);
            if active >= self.state.cfg.max_connections as u64 {
                self.state.metrics.connections_refused.inc();
                refuse(stream);
                continue;
            }
            self.state.metrics.connections_opened.inc();
            let n = self.state.active_conns.fetch_add(1, Ordering::SeqCst) + 1;
            self.state.metrics.connections_active.set(n);
            let target = self.rr % self.shareds.len();
            self.rr += 1;
            if target == self.index {
                self.register_conn(stream);
            } else {
                self.shareds[target].inbox.lock().push(stream);
                self.shareds[target].waker.wake();
            }
        }
    }

    fn conn_ready(&mut self, token: u64, bits: u32, scratch: &mut [u8]) {
        let state = self.state.clone();
        let epfd = self.epfd;
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let mut verdict = Ok(());
        if bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            // Errors and hangups surface through read() (EOF or the
            // pending socket error), which also lets any final bytes in.
            verdict = conn.readable(&state, epfd, scratch);
        }
        if verdict.is_ok() && bits & sys::EPOLLOUT != 0 {
            verdict = conn.flush(&state, epfd);
        }
        if verdict.is_err() {
            self.evict(token);
        }
    }

    /// Evicts connections that sit mid-frame or mid-write without
    /// progress past the stall timeout. Fully idle connections (empty
    /// buffers) are exempt — mass idle is the C10K steady state, not a
    /// fault.
    fn scan_stalls(&mut self, stall: Duration) {
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                (!c.rbuf.is_empty() || c.pending_out() > 0)
                    && now.duration_since(c.last_progress) > stall
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            self.state.metrics.stall_evictions.inc();
            self.evict(token);
        }
    }

    fn evict(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = ep_ctl(self.epfd, sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
            self.conn_closed();
        }
    }

    fn conn_closed(&self) {
        let n = self.state.active_conns.fetch_sub(1, Ordering::SeqCst) - 1;
        self.state.metrics.connections_active.set(n);
    }

    /// Best-effort flush of every queued response before the loop exits.
    fn drain_on_shutdown(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        let state = self.state.clone();
        let epfd = self.epfd;
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                let _ = conn.flush(&state, epfd);
            }
            self.evict(token);
        }
    }
}

/// Tells an over-cap connection why it is being turned away (bounded
/// blocking write so a wedged peer can't hold up the acceptor).
fn refuse(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = protocol::write_frame(
        &mut &stream,
        &commands::err_frame(0, "connection-limit", "server connection limit reached"),
    );
}
