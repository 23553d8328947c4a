//! Connection transports: TCP and Unix-domain sockets, plus the
//! reactor-local pipe that carries every tree edge whose two ends share
//! a reactor thread.
//!
//! Every transport presents the same byte-stream surface to the reactor
//! (non-blocking `read` / `write_vectored` / `shutdown` plus a pollable
//! fd) and to the blocking client (`ClientStream`), so framing,
//! sequencing, retransmit, and fault injection are transport-agnostic.
//! The configured transport carries the clients. No tree edge uses it:
//! an edge inside one reactor is always a [`LocalStream`], and one that
//! crosses reactors a `UnixStream` socketpair ([`Stream::Uds`]) that the
//! dialing reactor makes.
//!
//! The local pipe has no descriptor: both ends live on one thread, so a
//! pair of `Rc`-shared byte queues is the whole connection. Its
//! readiness is the reactor's [`ReadyList`]: a reader's token is queued
//! when a write makes its pipe non-empty, when a read leaves bytes
//! behind, and when the peer closes.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use oat_poll::{poll_fds, PollFd, POLLIN};

/// Which connection transport a cluster uses for its clients.
// The hidden `Ring` is an alias callers still construct, not a marker
// that keeps the enum open.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Loopback TCP sockets (the portable default).
    #[default]
    Tcp,
    /// Unix-domain stream sockets under a per-cluster temp directory.
    Uds,
    /// An alias of [`TransportKind::Uds`], kept for callers that still
    /// name the in-process transport it replaced. `parse` never yields it.
    #[doc(hidden)]
    Ring,
}

impl TransportKind {
    /// Stable lower-case name, used in bench JSON and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Uds | TransportKind::Ring => "uds",
        }
    }

    /// Parse a CLI spelling (`tcp`, `uds`).
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "tcp" => Some(TransportKind::Tcp),
            "uds" | "unix" => Some(TransportKind::Uds),
            _ => None,
        }
    }
}

/// A node's listen address under some transport.
#[derive(Clone, Debug)]
pub enum NodeAddr {
    /// TCP socket address.
    Tcp(SocketAddr),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

impl From<SocketAddr> for NodeAddr {
    fn from(a: SocketAddr) -> NodeAddr {
        NodeAddr::Tcp(a)
    }
}

impl std::fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeAddr::Tcp(a) => write!(f, "{a}"),
            NodeAddr::Uds(p) => write!(f, "{}", p.display()),
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor-local pipe
// ---------------------------------------------------------------------------

/// One direction of a [`LocalStream`]: what its writer flushed and its
/// reader has not read yet, and the token the reader is dispatched under.
struct Pipe {
    bytes: RefCell<VecDeque<u8>>,
    /// Either end shut down or was dropped.
    closed: Cell<bool>,
    /// The reading end's packed reactor token.
    reader: Cell<u64>,
    /// `reader` sits on the ready list, not yet taken.
    queued: Cell<bool>,
}

impl Pipe {
    fn new() -> Rc<Pipe> {
        Rc::new(Pipe {
            bytes: RefCell::new(VecDeque::new()),
            closed: Cell::new(false),
            reader: Cell::new(0),
            queued: Cell::new(false),
        })
    }
}

/// The readiness source of a reactor's local pipes, dispatched beside
/// its epoll events: the readers that have bytes or an EOF to see, each
/// listed at most once. A wakeup so costs what is ready, as with epoll:
/// nothing walks the pipes that exist.
#[derive(Default)]
pub(crate) struct ReadyList {
    pipes: RefCell<Vec<Rc<Pipe>>>,
}

impl ReadyList {
    fn queue(&self, pipe: &Rc<Pipe>) {
        if !pipe.queued.replace(true) {
            self.pipes.borrow_mut().push(Rc::clone(pipe));
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pipes.borrow().is_empty()
    }

    /// Moves every queued reader's current token into `out`, oldest
    /// first; from here on each reader can be queued again.
    pub(crate) fn take_into(&self, out: &mut Vec<u64>) {
        for pipe in self.pipes.borrow_mut().drain(..) {
            pipe.queued.set(false);
            out.push(pipe.reader.get());
        }
    }
}

/// One end of an in-process connection between two nodes of one reactor
/// thread: it reads `rx` and writes `tx`, and its peer the reverse. It
/// carries exactly the bytes a socket would; only the readiness differs
/// (see the module docs).
pub(crate) struct LocalStream {
    rx: Rc<Pipe>,
    tx: Rc<Pipe>,
    ready: Rc<ReadyList>,
}

impl LocalStream {
    /// A connected pair whose readers queue on `ready`.
    pub(crate) fn pair(ready: &Rc<ReadyList>) -> (LocalStream, LocalStream) {
        let (a2b, b2a) = (Pipe::new(), Pipe::new());
        let end = |rx: &Rc<Pipe>, tx: &Rc<Pipe>| LocalStream {
            rx: Rc::clone(rx),
            tx: Rc::clone(tx),
            ready: Rc::clone(ready),
        };
        (end(&b2a, &a2b), end(&a2b, &b2a))
    }

    /// The token this end's reader is dispatched under from now on.
    pub(crate) fn set_token(&self, tok: u64) {
        self.rx.reader.set(tok);
    }

    /// FIFO drain into `out`; `WouldBlock` while empty, `Ok(0)` once the
    /// pipe is closed and drained. Bytes left behind requeue the reader.
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut bytes = self.rx.bytes.borrow_mut();
        if bytes.is_empty() && self.rx.closed.get() {
            return Ok(0);
        }
        if bytes.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = out.len().min(bytes.len());
        let (front, back) = bytes.as_slices();
        let split = n.min(front.len());
        out[..split].copy_from_slice(&front[..split]);
        out[split..n].copy_from_slice(&back[..n - split]);
        bytes.drain(..n);
        if !bytes.is_empty() {
            self.ready.queue(&self.rx);
        }
        Ok(n)
    }

    /// Appends every buffer; a write into an empty pipe queues the
    /// reader (into a non-empty one, the reader is queued already).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        if self.tx.closed.get() {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        let mut bytes = self.tx.bytes.borrow_mut();
        let was_empty = bytes.is_empty();
        for b in bufs {
            bytes.extend(b.iter());
        }
        if was_empty && !bytes.is_empty() {
            self.ready.queue(&self.tx);
        }
        Ok(bufs.iter().map(|b| b.len()).sum())
    }

    /// Closes both directions; the peer reads what is buffered, then
    /// EOF, and its next write is `BrokenPipe`. Idempotent.
    fn shutdown(&self) {
        self.rx.closed.set(true);
        if !self.tx.closed.replace(true) {
            self.ready.queue(&self.tx);
        }
    }
}

impl Drop for LocalStream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// UDS temp-dir guard
// ---------------------------------------------------------------------------

static NEXT_UDS_DIR: AtomicU64 = AtomicU64::new(0);

/// Owns the per-cluster socket directory; removed on drop.
pub(crate) struct UdsDir {
    path: PathBuf,
}

impl UdsDir {
    pub(crate) fn new() -> io::Result<UdsDir> {
        let n = NEXT_UDS_DIR.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("oat-uds-{}-{}", std::process::id(), n));
        std::fs::create_dir_all(&path)?;
        Ok(UdsDir { path })
    }

    pub(crate) fn sock_path(&self, idx: usize) -> PathBuf {
        self.path.join(format!("node-{idx}.sock"))
    }
}

impl Drop for UdsDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Reactor-side stream / listener
// ---------------------------------------------------------------------------

/// A non-blocking reactor-side connection over either transport, or over
/// a reactor-local pipe. `Uds` also holds either end of an edge
/// socketpair between two reactors.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
    Local(LocalStream),
}

impl Stream {
    /// Set per-transport socket options for reactor use
    /// (non-blocking; TCP_NODELAY where it applies).
    pub(crate) fn prepare(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)
            }
            Stream::Uds(s) => s.set_nonblocking(true),
            Stream::Local(_) => Ok(()),
        }
    }

    pub(crate) fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
            Stream::Local(s) => s.read(buf),
        }
    }

    pub(crate) fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Uds(s) => s.write_vectored(bufs),
            Stream::Local(s) => s.write_vectored(bufs),
        }
    }

    pub(crate) fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            Stream::Uds(s) => s.shutdown(how),
            Stream::Local(s) => {
                s.shutdown();
                Ok(())
            }
        }
    }

    /// The descriptor the reactor polls; a local pipe has none.
    pub(crate) fn fd(&self) -> Option<RawFd> {
        match self {
            Stream::Tcp(s) => Some(s.as_raw_fd()),
            Stream::Uds(s) => Some(s.as_raw_fd()),
            Stream::Local(_) => None,
        }
    }
}

/// A node's listener over either transport.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    /// Non-blocking accept. The reactor's `Conn::new`, which every
    /// stream passes through, prepares the stream.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
            Listener::Uds(l) => Stream::Uds(l.accept()?.0),
        })
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Uds(l) => l.as_raw_fd(),
        }
    }
}

// ---------------------------------------------------------------------------
// Blocking client stream
// ---------------------------------------------------------------------------

/// True when a read on `fd` would return at once (bytes, EOF or an
/// error are waiting).
fn readable_now(fd: RawFd) -> io::Result<bool> {
    Ok(poll_fds(&mut [PollFd::new(fd, POLLIN)], Some(Duration::ZERO))? > 0)
}

/// Blocking client-side connection over either transport.
pub(crate) enum ClientStream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl ClientStream {
    pub(crate) fn connect(addr: &NodeAddr) -> io::Result<ClientStream> {
        match addr {
            NodeAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(ClientStream::Tcp(s))
            }
            NodeAddr::Uds(p) => Ok(ClientStream::Uds(UnixStream::connect(p)?)),
        }
    }

    pub(crate) fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.set_read_timeout(d),
            ClientStream::Uds(s) => s.set_read_timeout(d),
        }
    }

    pub(crate) fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            ClientStream::Uds(s) => s.read(buf),
        }
    }

    /// Reads what is already there: `WouldBlock` instead of waiting
    /// when nothing is, whatever read timeout is set. An empty poll is
    /// one zero-timeout poll(2).
    pub(crate) fn read_nowait(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let fd = match self {
            ClientStream::Tcp(s) => s.as_raw_fd(),
            ClientStream::Uds(s) => s.as_raw_fd(),
        };
        if !readable_now(fd)? {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.read(buf)
    }

    pub(crate) fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.write_all(buf),
            ClientStream::Uds(s) => s.write_all(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `ready` into a fresh vector.
    fn taken(ready: &ReadyList) -> Vec<u64> {
        let mut out = Vec::new();
        ready.take_into(&mut out);
        out
    }

    #[test]
    fn local_pipe_keeps_fifo_order_across_writes_and_short_reads() {
        let ready = Rc::new(ReadyList::default());
        let (mut a, mut b) = LocalStream::pair(&ready);
        let sent: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
        for chunk in sent.chunks(97) {
            let (x, y) = chunk.split_at(chunk.len() / 3);
            let n = a.write_vectored(&[IoSlice::new(x), IoSlice::new(y)]);
            assert_eq!(n.unwrap(), chunk.len());
        }
        let mut got = Vec::new();
        let mut buf = [0u8; 13];
        loop {
            match b.read(&mut buf) {
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                    break;
                }
            }
        }
        assert_eq!(got, sent);
        // The other direction is its own pipe.
        b.write_vectored(&[IoSlice::new(b"back")]).unwrap();
        assert_eq!(a.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"back");
    }

    #[test]
    fn local_pipe_read_would_block_while_empty() {
        let ready = Rc::new(ReadyList::default());
        let (mut a, mut b) = LocalStream::pair(&ready);
        let mut buf = [0u8; 8];
        let err = b.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        a.write_vectored(&[IoSlice::new(b"x")]).unwrap();
        assert_eq!(b.read(&mut buf).unwrap(), 1);
        let err = b.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn local_pipe_delivers_buffered_bytes_then_eof() {
        let ready = Rc::new(ReadyList::default());
        // Closed by shutdown, then by drop.
        for drop_it in [false, true] {
            let (mut a, mut b) = LocalStream::pair(&ready);
            a.write_vectored(&[IoSlice::new(b"tail")]).unwrap();
            if drop_it {
                drop(a);
            } else {
                a.shutdown();
            }
            let mut buf = [0u8; 16];
            assert_eq!(b.read(&mut buf).unwrap(), 4);
            assert_eq!(&buf[..4], b"tail");
            assert_eq!(b.read(&mut buf).unwrap(), 0);
            assert_eq!(b.read(&mut buf).unwrap(), 0);
        }
    }

    #[test]
    fn local_pipe_write_after_peer_close_is_broken_pipe() {
        let ready = Rc::new(ReadyList::default());
        let (mut a, b) = LocalStream::pair(&ready);
        drop(b);
        let err = a.write_vectored(&[IoSlice::new(b"x")]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let (mut a, b) = LocalStream::pair(&ready);
        b.shutdown();
        let err = a.write_vectored(&[IoSlice::new(b"x")]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn local_pipe_queues_its_reader_on_what_the_reader_must_see() {
        let ready = Rc::new(ReadyList::default());
        let (mut a, mut b) = LocalStream::pair(&ready);
        a.set_token(1);
        b.set_token(2);
        assert!(ready.is_empty());
        // Empty → non-empty queues the reader once; a write into the
        // non-empty pipe queues nothing more.
        a.write_vectored(&[IoSlice::new(b"abc")]).unwrap();
        a.write_vectored(&[IoSlice::new(b"def")]).unwrap();
        assert_eq!(taken(&ready), [2]);
        assert!(ready.is_empty());
        a.write_vectored(&[IoSlice::new(b"ghi")]).unwrap();
        assert!(ready.is_empty(), "the pipe was non-empty");
        // A read that leaves bytes behind queues the reader again, and
        // only once however many such reads run before it is taken.
        let mut buf = [0u8; 2];
        b.read(&mut buf).unwrap();
        b.read(&mut buf).unwrap();
        assert_eq!(taken(&ready), [2]);
        // A read that drains the pipe queues nothing.
        let mut big = [0u8; 64];
        assert_eq!(b.read(&mut big).unwrap(), 5);
        assert!(ready.is_empty());
        // A retoken moves the queued token; the peer's close queues it.
        b.set_token(3);
        drop(a);
        assert_eq!(taken(&ready), [3]);
        assert_eq!(b.read(&mut big).unwrap(), 0);
        drop(b);
        assert!(ready.is_empty(), "nobody reads a pipe both ends closed");
    }

    #[test]
    fn uds_dir_cleanup_on_drop() {
        let d = UdsDir::new().unwrap();
        let p = d.path.clone();
        std::fs::write(d.sock_path(0), b"x").unwrap();
        assert!(p.exists());
        drop(d);
        assert!(!p.exists());
    }

    #[test]
    fn transport_kind_names_roundtrip() {
        for k in [TransportKind::Tcp, TransportKind::Uds] {
            assert_eq!(TransportKind::parse(k.name()), Some(k));
        }
        // The alias runs uds under uds's name; its old spellings parse to nothing.
        assert_eq!(TransportKind::Ring.name(), "uds");
        for gone in ["ring", "spsc"] {
            assert_eq!(TransportKind::parse(gone), None);
        }
        assert_eq!(TransportKind::parse("carrier-pigeon"), None);
    }
}
