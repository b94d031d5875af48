//! Readiness notification and wakeup primitives behind the event loop.
//!
//! A thin `epoll_create1`/`epoll_ctl`/`epoll_wait` FFI shim plus an
//! `eventfd` waker, declared in the same minimal style as the
//! `clock_gettime` shim in `vendor/rayon/src/cpu_time.rs` (the build
//! environment has no `libc` crate). The crate builds on 64-bit Linux only;
//! `lib.rs` holds the gate.
//!
//! The [`Waker`] is how other threads reach the loop: an engine worker after
//! pushing a completion, `Gateway::shutdown` after setting the stop flag.
//!
//! The poller is **level-triggered**: an event keeps firing while the
//! condition holds, so the event loop never needs to drain a socket to
//! "re-arm" it — it reads/writes until `WouldBlock` because that is cheaper,
//! not because correctness demands it.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const EPOLL_CLOEXEC: i32 = 0x8_0000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_CLOEXEC: i32 = 0x8_0000;
const EFD_NONBLOCK: i32 = 0x800;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 only; other
/// 64-bit architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// The descriptor is readable (or has pending data).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; the connection should be
    /// read to EOF and closed.
    pub closed: bool,
}

/// A wait bound as the millisecond argument of `epoll_wait`: `-1` blocks
/// forever. Rounded up, so a wait never returns before its bound and a
/// caller looping to a deadline does not spin through the last millisecond.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
    }
}

/// Readiness multiplexer over raw fds: one epoll instance.
pub(crate) struct Poller {
    epfd: i32,
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Create the epoll instance.
    pub fn new() -> io::Result<Poller> {
        // Safety: epoll_create1 takes a flag word and returns an fd or -1.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd, buf: vec![EpollEvent { events: 0, data: 0 }; 256] })
    }

    fn ctl(&mut self, op: i32, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        let mut mask = EPOLLRDHUP;
        if readable {
            mask |= EPOLLIN;
        }
        if writable {
            mask |= EPOLLOUT;
        }
        let mut ev = EpollEvent { events: mask, data: token };
        // Safety: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` under `token` for the given interests.
    pub fn register(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    /// Replace the interests of an already-registered `fd`.
    pub fn modify(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    /// Stop watching `fd`.
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
    }

    /// Block for up to `timeout` (forever when `None`) and append ready
    /// events to `out`. Returns normally on `EINTR` with no events.
    pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
        let capacity = self.buf.len() as i32;
        // Safety: `buf` is a live, writable array of `capacity` events for
        // the duration of the call.
        let n = unsafe { epoll_wait(self.epfd, self.buf.as_mut_ptr(), capacity, timeout_ms(timeout)) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // EINTR: caller simply loops again
            }
            return Err(err);
        }
        for raw in self.buf.iter().take(n as usize) {
            let mask = raw.events;
            out.push(Event {
                token: raw.data,
                readable: mask & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: mask & EPOLLOUT != 0,
                closed: mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // Safety: the fd was returned by epoll_create1 and is closed once.
        unsafe { close(self.epfd) };
    }
}

/// Cross-thread wakeup for the event loop: an engine thread that just pushed
/// a completion (or a shutdown request) signals, the loop's poller observes
/// the eventfd as readable and drains it. Signals coalesce through
/// `pending`, so a stalled loop accumulates exactly one outstanding count no
/// matter how many notifications raced in.
///
/// The contract with the consumer: publish, then `notify`; on the loop side
/// `drain`, then look at what was published. A `notify` that lands while
/// `drain` runs may leave no fd event behind, but its data was published
/// before `drain` returned, so the look that follows finds it.
pub(crate) struct Waker {
    fd: i32,
    pending: AtomicBool,
}

impl Waker {
    /// Create the wakeup eventfd.
    pub fn new() -> io::Result<Waker> {
        // Safety: eventfd takes two scalars and returns an fd or -1.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd, pending: AtomicBool::new(false) })
    }

    /// The fd the event loop registers for readability.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Wake the event loop (idempotent while a wakeup is pending).
    pub fn notify(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let one: u64 = 1;
            // Safety: writes 8 bytes from a live stack value. A full counter
            // (EAGAIN) already guarantees a pending wakeup, so the result is
            // intentionally ignored.
            unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }
    }

    /// Consume a pending wakeup; called by the loop when the fd fires.
    ///
    /// The fd is emptied *before* the flag is cleared. In the other order a
    /// `notify` landing between the two steps would set the flag and write a
    /// count that the read then swallows, leaving the flag stuck `true` over
    /// an empty fd — every later `notify` a no-op and the loop asleep forever.
    ///
    /// The clear is a read-modify-write pairing with `notify`'s swap: it
    /// either reads the notifier's write, acquiring what that thread
    /// published, or precedes it, and the notifier then signals the fd anew.
    /// A plain store could be passed by the loop's next loads and lose both.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // Safety: reads at most 8 bytes into a live stack buffer. The fd is
        // non-blocking; an empty counter returns EAGAIN, which is the desired
        // no-op.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        self.pending.swap(false, Ordering::AcqRel);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // Safety: the fd came from eventfd and is closed exactly once.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_reports_readability_on_a_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 7, true, false).unwrap();

        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(50)), &mut events).unwrap();
        assert!(events.is_empty(), "nothing written yet: {events:?}");

        client.write_all(b"hi").unwrap();
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(1000)), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        let mut buf = [0u8; 2];
        server.read_exact(&mut buf).unwrap();
        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn poller_modify_switches_interest_to_writable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let _ = client;

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 3, true, false).unwrap();
        poller.modify(server.as_raw_fd(), 3, false, true).unwrap();
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(1000)), &mut events).unwrap();
        // An idle socket with room in its send buffer is writable.
        assert_eq!(events.len(), 1);
        assert!(events[0].writable);
        assert!(!events[0].readable);
    }

    /// A peer's `shutdown(Write)` arrives as `EPOLLRDHUP`, which the event
    /// loop reads as `readable && closed` to drain the connection and close
    /// it. Level-triggered, the condition keeps firing until the fd is
    /// deregistered.
    #[test]
    fn peer_hangup_is_readable_and_closed_until_deregistered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 5, true, false).unwrap();
        client.shutdown(Shutdown::Write).unwrap();

        for _ in 0..2 {
            let mut events = Vec::new();
            poller.wait(Some(Duration::from_millis(1000)), &mut events).unwrap();
            assert_eq!(events.len(), 1, "{events:?}");
            assert_eq!(events[0].token, 5);
            assert!(events[0].readable && events[0].closed, "{events:?}");
        }

        poller.deregister(server.as_raw_fd()).unwrap();
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(50)), &mut events).unwrap();
        assert!(events.is_empty(), "deregistered: {events:?}");
    }

    #[test]
    fn waker_wakes_the_poller_and_coalesces() {
        let waker = Waker::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(waker.fd(), 1, true, false).unwrap();

        waker.notify();
        waker.notify(); // coalesced: pending flag already set
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(1000)), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 1);
        waker.drain();

        // Drained: the next wait times out quietly.
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(20)), &mut events).unwrap();
        assert!(events.is_empty());

        // And a fresh notify after the drain fires again.
        waker.notify();
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(1000)), &mut events).unwrap();
        assert_eq!(events.len(), 1);
    }

    /// The consumer protocol the event loop runs (wait → drain → take)
    /// against several threads doing publish → notify. Each notifier waits
    /// for its item to be taken before publishing the next, so nearly every
    /// item costs the consumer its own wake and notifies keep landing while
    /// another's wake is being drained. A `notify` lost inside `drain` shows
    /// as a wait that times out while items sit untaken.
    #[test]
    fn waker_loses_no_wakeup_with_many_notifiers() {
        use std::sync::atomic::AtomicUsize;
        const NOTIFIERS: usize = 4;
        const ITEMS_EACH: usize = 40_000;
        const STALL: Duration = Duration::from_secs(5);

        let waker = Waker::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(waker.fd(), 1, true, false).unwrap();
        let published = std::sync::Mutex::new(Vec::<usize>::new());
        let taken: Vec<AtomicUsize> = (0..NOTIFIERS).map(|_| AtomicUsize::new(0)).collect();
        let gave_up = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for n in 0..NOTIFIERS {
                let (waker, published, taken, gave_up) = (&waker, &published, &taken, &gave_up);
                scope.spawn(move || {
                    for i in 0..ITEMS_EACH {
                        published.lock().unwrap().push(n);
                        waker.notify();
                        while taken[n].load(Ordering::Acquire) <= i && !gave_up.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                });
            }

            let mut remaining = NOTIFIERS * ITEMS_EACH;
            let mut events = Vec::new();
            while remaining > 0 {
                events.clear();
                let waited = std::time::Instant::now();
                poller.wait(Some(STALL), &mut events).unwrap();
                if events.is_empty() {
                    if waited.elapsed() < STALL {
                        continue; // EINTR
                    }
                    gave_up.store(true, Ordering::Release);
                    let stranded = published.lock().unwrap().len();
                    panic!("poll timed out with {stranded} items published and {remaining} still to take");
                }
                waker.drain();
                for n in std::mem::take(&mut *published.lock().unwrap()) {
                    taken[n].fetch_add(1, Ordering::AcqRel);
                    remaining -= 1;
                }
            }
        });
    }
}
