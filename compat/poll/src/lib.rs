//! Readiness layer for the offline build: a persistent epoll instance
//! for the reactor, a one-shot `poll(2)` for everyone else.
//!
//! The reactor in `oat-net` needs one thing the standard library does
//! not expose: "block until any of these sockets is ready". Both
//! syscall families are reachable through the libc that `std` already
//! links — no external crate required. This shim confines the `unsafe`
//! FFI to three small functions so `oat-net` can keep its
//! `#![forbid(unsafe_code)]`.
//!
//! ## [`Poller`]: registration, not a per-call set
//!
//! A [`Poller`] is a level-triggered `epoll(7)` instance. The interest
//! set lives in the kernel: a descriptor is [`Poller::add`]ed once with
//! a caller-chosen `u64` token, re-armed or re-tokened with
//! [`Poller::set_interest`], and [`Poller::remove`]d before it is closed
//! — one `epoll_ctl` each, nothing else. [`Poller::wait`] fills an
//! [`Events`] buffer with the *ready* `(token, bits)` pairs only, so a
//! wakeup costs O(ready) however many descriptors are registered. No
//! userspace mirror of the set exists; the caller's token is the only
//! mapping back to its own state.
//!
//! Level-triggered means a descriptor keeps reporting readiness until
//! the condition is consumed, so callers may read or write a bounded
//! amount per event and rely on the next wait to re-report whatever is
//! left. One epoll rule shapes the caller: hang-up and error are
//! reported *whatever* the interest mask, so "stop listening to this
//! socket for a while" must be a `remove`, not an empty mask.
//!
//! ## [`poll_fds`]: the one-shot
//!
//! `poll(2)` over a caller-built slice survives for waits that have no
//! set to keep — a client's zero-wait "is a byte already here?" probe on
//! one descriptor. It is O(slice) per call by construction.

use std::io;
use std::os::raw::{c_int, c_ulong};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable data (or EOF) is available.
pub const POLLIN: i16 = 0x001;
/// The descriptor is writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// The descriptor is not open (revents only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a poll set: mirrors `struct pollfd` bit for bit.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: RawFd,
    /// Requested events ([`POLLIN`] / [`POLLOUT`] bits).
    pub events: i16,
    /// Returned events, filled by [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// A poll entry for `fd` with the given interest bits.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// True when any of `mask`'s bits came back in `revents`.
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// True when the kernel reported readable data, an error, or a
    /// hangup — every case where a read will make progress (possibly
    /// returning 0 or an error that the caller must handle).
    pub fn readable(&self) -> bool {
        self.ready(POLLIN | POLLERR | POLLHUP | POLLNVAL)
    }

    /// True when a write would make progress.
    pub fn writable(&self) -> bool {
        self.ready(POLLOUT | POLLERR | POLLHUP | POLLNVAL)
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Millisecond timeout argument shared by `poll` and `epoll_wait`:
/// `None` blocks indefinitely (-1); a non-zero wait under 1 ms rounds
/// up, so a 100 µs deadline cannot spin at timeout 0.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            if d > Duration::ZERO && ms == 0 {
                1
            } else {
                ms.min(c_int::MAX as u128) as c_int
            }
        }
    }
}

/// Blocks until at least one entry of `fds` is ready, the timeout
/// elapses (`Ok(0)`), or a signal interrupts the wait (also `Ok(0)` —
/// spurious wakeups are part of the contract; callers loop).
///
/// `timeout`: `None` blocks indefinitely; `Some(d)` waits at most `d`
/// (rounded up to the next millisecond so a 100µs deadline cannot spin
/// at timeout 0).
pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    // SAFETY: `PollFd` is `#[repr(C)]` and layout-identical to `struct
    // pollfd`; the pointer/length pair comes from a live mutable slice,
    // and the kernel writes only within `nfds` entries.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms(timeout)) };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        // EINTR: report "nothing ready"; the caller's loop re-polls.
        return Ok(0);
    }
    Err(err)
}

const EPOLL_CLOEXEC: c_int = 0x80000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
/// Readiness bits epoll shares bit-for-bit with the poll(2) constants.
const EVENT_MASK: u32 = (POLLIN | POLLOUT | POLLERR | POLLHUP) as u32;

/// Mirrors `struct epoll_event`: packed on x86-64 (the kernel ABI
/// quirk), naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    /// The caller's token, returned verbatim with each event.
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// One ready descriptor: the token it was registered under and the
/// readiness bits the kernel reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The token passed to [`Poller::add`] / [`Poller::set_interest`].
    pub token: u64,
    /// [`POLLIN`] / [`POLLOUT`] / [`POLLERR`] / [`POLLHUP`] bits.
    pub bits: i16,
}

impl Event {
    /// True when a read will make progress: data, an error, or a hangup
    /// (the read then returns 0 or the error, which the caller handles).
    pub fn readable(&self) -> bool {
        self.bits & (POLLIN | POLLERR | POLLHUP) != 0
    }

    /// True when a write would make progress (or fail fast).
    pub fn writable(&self) -> bool {
        self.bits & (POLLOUT | POLLERR | POLLHUP) != 0
    }
}

/// Reusable buffer [`Poller::wait`] fills with ready events. Its
/// capacity bounds the events returned per wait; level-triggered
/// readiness re-reports the rest on the next one.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer for up to `capacity` events per wait (at least one).
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Events returned by the last wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the last wait returned nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The last wait's events, in kernel order.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|ev| Event {
            token: ev.data,
            bits: (ev.events & EVENT_MASK) as i16,
        })
    }
}

/// Persistent level-triggered epoll instance; see the crate docs.
///
/// Every method takes `&self`: the kernel object is the only state, so
/// connection owners can share one poller and register themselves.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates the epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: i16) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest as u32 & EVENT_MASK,
            data: token,
        };
        // SAFETY: `ev` is a live, layout-correct epoll_event; the kernel
        // reads it for ADD/MOD and ignores it for DEL.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Registers `fd` under `token` with the given interest bits. Fails
    /// with `AlreadyExists` when `fd` is registered already.
    pub fn add(&self, fd: RawFd, token: u64, interest: i16) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces a registered descriptor's token and interest bits.
    pub fn set_interest(&self, fd: RawFd, token: u64, interest: i16) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`; no event for it is reported by a later wait.
    /// Call before closing the descriptor, so its number can be reused
    /// by a new connection without any stale state behind it.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until a registered descriptor is ready, the timeout
    /// elapses, or a signal interrupts the wait; fills `events` with
    /// the ready `(token, bits)` pairs and returns their count (`Ok(0)`
    /// on timeout or interrupt — callers loop). Timeouts round as in
    /// [`poll_fds`].
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.len = 0;
        // SAFETY: the buffer is live and `maxevents` is its length (at
        // least one); the kernel writes only within it.
        let rc = unsafe {
            epoll_wait(
                self.epfd,
                events.buf.as_mut_ptr(),
                events.buf.len().min(c_int::MAX as usize) as c_int,
                timeout_ms(timeout),
            )
        };
        if rc >= 0 {
            events.len = rc as usize;
            return Ok(events.len);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        Err(err)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd we own; errors are unreportable.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// The tests of this crate run on parallel threads of one process and
    /// every one of them opens descriptors, so which numbers the kernel
    /// hands out next depends on the others. The one test that asserts on
    /// a number holds this exclusively; the rest share it.
    static DESCRIPTOR_NUMBERS: RwLock<()> = RwLock::new(());

    fn descriptor_numbers_shared() -> RwLockReadGuard<'static, ()> {
        DESCRIPTOR_NUMBERS
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn descriptor_numbers_exclusive() -> RwLockWriteGuard<'static, ()> {
        DESCRIPTOR_NUMBERS
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn timeout_expires_with_nothing_ready() {
        let _fds = descriptor_numbers_shared();
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].readable());
    }

    #[test]
    fn written_byte_reports_readable() {
        let _fds = descriptor_numbers_shared();
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(&[7]).unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        let mut byte = [0u8; 1];
        (&b).read_exact(&mut byte).unwrap();
        assert_eq!(byte[0], 7);
        // Level-triggered: once consumed, readiness clears.
        let n = poll_fds(&mut fds, Some(Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn idle_socket_is_writable_and_hangup_is_reported() {
        let _fds = descriptor_numbers_shared();
        let (a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].writable());
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable(), "hangup must surface as readable");
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_not_down() {
        let _fds = descriptor_numbers_shared();
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        // Must block (~1ms), not degenerate into a busy spin at 0.
        let n = poll_fds(&mut fds, Some(Duration::from_micros(100))).unwrap();
        assert_eq!(n, 0);
    }

    fn wait_ms(poller: &Poller, events: &mut Events, ms: u64) -> Vec<Event> {
        poller
            .wait(events, Some(Duration::from_millis(ms)))
            .unwrap();
        events.iter().collect()
    }

    #[test]
    fn poller_re_reports_readiness_until_it_is_consumed() {
        let _fds = descriptor_numbers_shared();
        let (mut a, b) = UnixStream::pair().unwrap();
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(8);
        poller.add(b.as_raw_fd(), 7, POLLIN).unwrap();
        assert!(wait_ms(&poller, &mut events, 5).is_empty());
        a.write_all(&[1, 2]).unwrap();
        // Level-triggered: the same readiness comes back on every wait
        // while a byte is still unread.
        for _ in 0..3 {
            let got = wait_ms(&poller, &mut events, 1000);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].token, 7);
            assert!(got[0].readable() && !got[0].writable());
            assert_eq!(events.len(), 1);
        }
        let mut bytes = [0u8; 2];
        (&b).read_exact(&mut bytes).unwrap();
        assert!(wait_ms(&poller, &mut events, 5).is_empty());
        assert!(events.is_empty());
    }

    #[test]
    fn set_interest_arms_and_disarms_pollout_and_retokens() {
        let _fds = descriptor_numbers_shared();
        let (a, _b) = UnixStream::pair().unwrap();
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(8);
        let fd = a.as_raw_fd();
        poller.add(fd, 1, POLLIN).unwrap();
        // An idle socket is writable, but nobody asked.
        assert!(wait_ms(&poller, &mut events, 5).is_empty());
        poller.set_interest(fd, 2, POLLIN | POLLOUT).unwrap();
        let got = wait_ms(&poller, &mut events, 1000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].token, 2, "set_interest replaces the token too");
        assert!(got[0].writable() && !got[0].readable());
        poller.set_interest(fd, 2, POLLIN).unwrap();
        assert!(wait_ms(&poller, &mut events, 5).is_empty());
        // Registering twice is the caller's bug and says so.
        let again = poller.add(fd, 3, POLLIN).unwrap_err();
        assert_eq!(again.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn remove_silences_a_ready_descriptor() {
        let _fds = descriptor_numbers_shared();
        let (mut a, b) = UnixStream::pair().unwrap();
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(8);
        poller.add(b.as_raw_fd(), 9, POLLIN).unwrap();
        a.write_all(&[1]).unwrap();
        assert_eq!(wait_ms(&poller, &mut events, 1000).len(), 1);
        poller.remove(b.as_raw_fd()).unwrap();
        assert!(wait_ms(&poller, &mut events, 5).is_empty());
        // Removing what is not registered is an error, not a no-op.
        assert!(poller.remove(b.as_raw_fd()).is_err());
    }

    #[test]
    fn a_closed_and_reused_fd_number_registers_afresh() {
        let _fds = descriptor_numbers_exclusive();
        // Remove, close, and open a new pair (which takes the lowest
        // free numbers, so the old one comes back — no other test opens
        // or closes a descriptor meanwhile): the successor adds under
        // its own token with no helper call, and nothing of the
        // predecessor's registration is reported.
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(8);
        let (mut a, b) = UnixStream::pair().unwrap();
        let old_fds = [a.as_raw_fd(), b.as_raw_fd()];
        poller.add(b.as_raw_fd(), 100, POLLIN).unwrap();
        a.write_all(&[1]).unwrap();
        assert_eq!(wait_ms(&poller, &mut events, 1000)[0].token, 100);
        poller.remove(b.as_raw_fd()).unwrap();
        drop(b);
        drop(a);
        let (mut a2, b2) = UnixStream::pair().unwrap();
        assert!(
            old_fds.contains(&b2.as_raw_fd()) || old_fds.contains(&a2.as_raw_fd()),
            "the kernel hands out the lowest free descriptor numbers"
        );
        poller.add(b2.as_raw_fd(), 200, POLLIN).unwrap();
        assert!(wait_ms(&poller, &mut events, 5).is_empty());
        a2.write_all(&[1]).unwrap();
        let got = wait_ms(&poller, &mut events, 1000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].token, 200);
    }

    #[test]
    fn hangup_is_delivered_under_an_empty_interest_mask() {
        let _fds = descriptor_numbers_shared();
        // Why a stalled node removes its client sockets instead of
        // masking them: epoll reports HUP/ERR whatever the mask, on
        // every wait, so a masked socket whose peer left spins the loop.
        let (a, b) = UnixStream::pair().unwrap();
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(8);
        poller.add(b.as_raw_fd(), 5, 0).unwrap();
        assert!(wait_ms(&poller, &mut events, 5).is_empty());
        drop(a);
        for _ in 0..2 {
            let got = wait_ms(&poller, &mut events, 1000);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].token, 5);
            assert!(got[0].bits & POLLHUP != 0);
            assert!(got[0].readable(), "a hangup must route to the read path");
        }
        poller.remove(b.as_raw_fd()).unwrap();
        assert!(wait_ms(&poller, &mut events, 5).is_empty());
    }

    #[test]
    fn one_ready_among_512_registered_returns_exactly_one_event() {
        let _fds = descriptor_numbers_shared();
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(64);
        let mut pairs: Vec<(UnixStream, UnixStream)> =
            (0..512).map(|_| UnixStream::pair().unwrap()).collect();
        for (i, (_, rx)) in pairs.iter().enumerate() {
            poller.add(rx.as_raw_fd(), i as u64, POLLIN).unwrap();
        }
        assert!(wait_ms(&poller, &mut events, 5).is_empty());
        pairs[317].0.write_all(&[1]).unwrap();
        let got = wait_ms(&poller, &mut events, 1000);
        assert_eq!(
            got,
            vec![Event {
                token: 317,
                bits: POLLIN
            }]
        );
    }

    #[test]
    fn a_full_event_buffer_defers_the_rest_to_the_next_wait() {
        let _fds = descriptor_numbers_shared();
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(2);
        let mut pairs: Vec<(UnixStream, UnixStream)> =
            (0..5).map(|_| UnixStream::pair().unwrap()).collect();
        for (i, (tx, rx)) in pairs.iter_mut().enumerate() {
            poller.add(rx.as_raw_fd(), i as u64, POLLIN).unwrap();
            tx.write_all(&[1]).unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < 5 {
            let got = wait_ms(&poller, &mut events, 1000);
            assert!(!got.is_empty() && got.len() <= 2);
            for ev in got {
                let (_, rx) = &pairs[ev.token as usize];
                let mut byte = [0u8; 1];
                (&*rx).read_exact(&mut byte).unwrap();
                seen.insert(ev.token);
            }
        }
    }
}
