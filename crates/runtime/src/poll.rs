//! A minimal readiness poller over raw `epoll`, plus an `eventfd` waker
//! and a `timerfd` alarm.
//!
//! The workspace is dependency-free, so instead of `mio`/`tokio` this
//! module declares the syscall wrappers it needs directly; the symbols
//! live in the platform libc that `std` already links. Linux only, like
//! the daemon it serves (`net::run_node` reports `Unsupported`
//! elsewhere).
//!
//! Level-triggered semantics throughout: an fd keeps reporting readable/
//! writable until drained, so the event loop never needs to track
//! "spurious wakeup vs missed edge" state. Write interest is toggled per
//! connection as its outbound queue fills and drains.

#![cfg(target_os = "linux")]

use core::ffi::c_long;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

const CLOCK_MONOTONIC: i32 = 1;
const TFD_CLOEXEC: i32 = 0o2000000;
const TFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`; packed on x86-64 (the kernel ABI
/// packs it there so 32- and 64-bit layouts agree), natural layout on
/// other architectures.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// The kernel's `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// The kernel's `struct itimerspec`.
#[repr(C)]
struct ITimerSpec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const ITimerSpec, old: *mut ITimerSpec) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
    fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can take more bytes.
    pub writable: bool,
    /// Peer closed or the fd errored; the connection is done.
    pub hangup: bool,
}

/// An `epoll` instance. Register fds with a `u64` token; `wait` reports
/// which tokens are ready.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn interest(readable: bool, writable: bool) -> u32 {
        // ERR/HUP are always reported by the kernel; RDHUP must be asked
        // for and is how a half-closed read side surfaces.
        let mut ev = EPOLLRDHUP;
        if readable {
            ev |= EPOLLIN;
        }
        if writable {
            ev |= EPOLLOUT;
        }
        ev
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts watching `fd` under `token`.
    pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Self::interest(readable, writable), token)
    }

    /// Changes the interest set of a watched fd.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Self::interest(readable, writable), token)
    }

    /// Stops watching `fd` (must still be open when called).
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one fd is ready (or `timeout` passes, if
    /// given), filling `out` with the ready set. EINTR retries
    /// internally.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout_ms = match timeout {
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
            None => -1,
        };
        let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            let n =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms) };
            if n >= 0 {
                break n as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        for ev in &raw[..n] {
            // Copy out of the (possibly packed) struct before touching.
            let events = ev.events;
            let token = ev.data;
            out.push(Event {
                token,
                readable: events & EPOLLIN != 0,
                writable: events & EPOLLOUT != 0,
                hangup: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

/// An owned `eventfd` or `timerfd`: both read as one 8-byte counter.
struct CounterFd(RawFd);

impl CounterFd {
    fn new(fd: i32) -> io::Result<CounterFd> {
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(CounterFd(fd))
    }

    /// Reads the counter, so the fd stops reading as ready.
    fn drain(&self) {
        let mut counter: u64 = 0;
        // SAFETY: `counter` is a live, writable 8-byte buffer, and `self.0`
        // is an fd this value owns (a failed read changes nothing).
        unsafe { read(self.0, (&mut counter as *mut u64).cast(), 8) };
    }
}

impl Drop for CounterFd {
    fn drop(&mut self) {
        // SAFETY: `self.0` is owned by this value and closed only here.
        unsafe { close(self.0) };
    }
}

/// Cross-thread wakeup for a [`Poller`]: an `eventfd` registered like any
/// connection. Other threads call [`Waker::wake`]; the poller thread sees
/// its token readable and calls [`Waker::drain`].
pub struct Waker {
    fd: CounterFd,
}

impl Waker {
    /// A fresh non-blocking eventfd.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: `eventfd` takes no pointers; a negative result is an
        // error, which `CounterFd::new` returns.
        Ok(Waker { fd: CounterFd::new(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })? })
    }

    /// The fd to register with the poller.
    pub fn fd(&self) -> RawFd {
        self.fd.0
    }

    /// Makes the poller's next (or current) `wait` return. Wakes coalesce:
    /// any number of calls before a drain produce one readable event.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: `one` is a live 8-byte buffer, and the fd is owned here.
        unsafe { write(self.fd.0, (&one as *const u64).cast(), 8) };
    }

    /// Consumes pending wakes so the fd stops reading as ready.
    pub fn drain(&self) {
        self.fd.drain();
    }
}

/// A one-shot monotonic alarm for a [`Poller`]: a `timerfd` registered
/// like the waker. It wakes a `wait` that has no timeout with nanosecond
/// resolution, where `epoll_wait`'s own timeout counts whole
/// milliseconds. The poller sees its token readable once it fires;
/// [`Alarm::drain`] clears that.
pub struct Alarm {
    fd: CounterFd,
}

impl Alarm {
    /// A fresh, disarmed, non-blocking timerfd.
    pub fn new() -> io::Result<Alarm> {
        // SAFETY: `timerfd_create` takes no pointers; a negative result is
        // an error, which `CounterFd::new` returns.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK) };
        Ok(Alarm { fd: CounterFd::new(fd)? })
    }

    /// The fd to register with the poller.
    pub fn fd(&self) -> RawFd {
        self.fd.0
    }

    /// Arms the alarm to fire once, `after` from now, replacing any
    /// earlier setting. A zero `after` fires at once (as 1 ns: a zero
    /// setting would disarm the timer).
    pub fn set(&self, after: Duration) -> io::Result<()> {
        let after = after.max(Duration::from_nanos(1));
        let zero = Timespec { tv_sec: 0, tv_nsec: 0 };
        let value = Timespec {
            tv_sec: after.as_secs().min(i32::MAX as u64) as c_long,
            tv_nsec: after.subsec_nanos() as c_long,
        };
        let spec = ITimerSpec { it_interval: zero, it_value: value };
        // SAFETY: `spec` is a live `itimerspec` with `tv_nsec` below 1e9,
        // the old-value pointer may be null, and the fd is owned here.
        if unsafe { timerfd_settime(self.fd.0, 0, &spec, std::ptr::null_mut()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Consumes a fired alarm so the fd stops reading as ready.
    pub fn drain(&self) {
        self.fd.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_reports_accept_read_and_write_readiness() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.add(listener.as_raw_fd(), 1, true, false).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a zero timeout returns empty.
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.iter().all(|e| e.token != 1));

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable), "accept readiness");

        let (mut served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        poller.add(served.as_raw_fd(), 2, true, true).unwrap();
        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        let ev = events.iter().find(|e| e.token == 2).expect("conn event");
        assert!(ev.writable, "fresh socket is writable");
        // Readable may need one more wait round for the bytes to land.
        if !ev.readable {
            poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        }
        let mut buf = [0u8; 8];
        assert_eq!(served.read(&mut buf).unwrap(), 4);

        // Peer hangup surfaces on the next wait.
        drop(client);
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.hangup), "hangup reported");
        poller.remove(served.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_wakes_a_blocked_wait_and_coalesces() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 7, true, false).unwrap();
        let w = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
            w.wake();
            w.wake();
        });
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        waker.drain();
        // All three wakes coalesced into the drained counter.
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.iter().all(|e| e.token != 7), "drain cleared readiness");
        t.join().unwrap();
    }

    #[test]
    fn alarm_wakes_a_wait_without_timeout_and_drain_clears_it() {
        let poller = Poller::new().unwrap();
        let alarm = Alarm::new().unwrap();
        poller.add(alarm.fd(), 9, true, false).unwrap();
        let set_at = std::time::Instant::now();
        alarm.set(Duration::from_micros(300)).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.readable), "the alarm woke the wait");
        assert!(set_at.elapsed() >= Duration::from_micros(300), "fired early");
        alarm.drain();
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.iter().all(|e| e.token != 9), "drain cleared readiness");
    }
}
