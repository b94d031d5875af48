//! Readiness notification and wakeup primitives behind the event loop.
//!
//! On 64-bit Linux this is a thin `epoll_create1`/`epoll_ctl`/`epoll_wait`
//! FFI shim plus an `eventfd` waker, declared in the same minimal style as
//! the `clock_gettime` shim in `vendor/rayon/src/cpu_time.rs` (the build
//! environment has no `libc` crate). Other Unix targets fall back to a
//! portable `poll(2)` loop over the registered set and a self-pipe waker —
//! `struct pollfd` is `{int, short, short}` on every Unix ABI, so a single
//! declaration is sound there. Non-Unix targets report
//! [`std::io::ErrorKind::Unsupported`] from [`Poller::new`]; nothing else in
//! the crate is reached.
//!
//! The [`Waker`] is how other threads reach the loop: an engine worker after
//! pushing a completion, `Gateway::shutdown` after setting the stop flag.
//!
//! Both backends are **level-triggered**: an event keeps firing while the
//! condition holds, so the event loop never needs to drain a socket to
//! "re-arm" it — it reads/writes until `WouldBlock` because that is cheaper,
//! not because correctness demands it.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

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

/// A wait bound as the millisecond argument of `epoll_wait` / `poll`: `-1`
/// blocks forever. Rounded up, so a wait never returns before its bound and
/// a caller looping to a deadline does not spin through the last millisecond.
#[cfg(unix)]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
    }
}

/// Raw file descriptors of the sockets the event loop multiplexes.
#[cfg(unix)]
pub(crate) fn listener_fd(listener: &std::net::TcpListener) -> i32 {
    use std::os::fd::AsRawFd;
    listener.as_raw_fd()
}

/// Raw file descriptor of a connection socket.
#[cfg(unix)]
pub(crate) fn stream_fd(stream: &std::net::TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn listener_fd(_listener: &std::net::TcpListener) -> i32 {
    -1
}

#[cfg(not(unix))]
pub(crate) fn stream_fd(_stream: &std::net::TcpStream) -> i32 {
    -1
}

// ---------------------------------------------------------------------------
// epoll backend (64-bit Linux)
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    use super::Event;
    use std::io;
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
        fn close(fd: i32) -> i32;
    }

    /// The epoll instance.
    pub(crate) struct Poller {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
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

        pub fn register(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable)
        }

        pub fn modify(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
        }

        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
        }

        pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
            let timeout_ms = super::timeout_ms(timeout);
            let capacity = self.buf.len() as i32;
            // Safety: `buf` is a live, writable array of `capacity` events for
            // the duration of the call.
            let n = unsafe { epoll_wait(self.epfd, self.buf.as_mut_ptr(), capacity, timeout_ms) };
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
}

// ---------------------------------------------------------------------------
// poll(2) backend (other Unix)
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(all(target_os = "linux", target_pointer_width = "64"))))]
mod imp {
    use super::Event;
    use std::io;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// `struct pollfd`: `{int, short, short}` on every Unix ABI.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        /// `nfds_t` is `unsigned int` on the BSDs/macOS and `unsigned long`
        /// (= 32 bits here: this module only compiles on non-64-bit-pointer
        /// Unix) on Linux, so `u32` matches both.
        fn poll(fds: *mut PollFd, nfds: u32, timeout: i32) -> i32;
    }

    struct Registration {
        fd: i32,
        token: u64,
        readable: bool,
        writable: bool,
    }

    /// Portable fallback: re-builds the pollfd array from the registered set
    /// on every wait. O(n) per call, which is fine for the fleet sizes the
    /// fallback targets (development machines, not production Linux).
    pub(crate) struct Poller {
        registered: Vec<Registration>,
        buf: Vec<PollFd>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { registered: Vec::with_capacity(64), buf: Vec::with_capacity(64) })
        }

        pub fn register(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            if self.registered.iter().any(|r| r.fd == fd) {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
            }
            self.registered.push(Registration { fd, token, readable, writable });
            Ok(())
        }

        pub fn modify(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            match self.registered.iter_mut().find(|r| r.fd == fd) {
                Some(r) => {
                    r.token = token;
                    r.readable = readable;
                    r.writable = writable;
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            let before = self.registered.len();
            self.registered.retain(|r| r.fd != fd);
            if self.registered.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
            self.buf.clear();
            for r in &self.registered {
                let mut mask = 0i16;
                if r.readable {
                    mask |= POLLIN;
                }
                if r.writable {
                    mask |= POLLOUT;
                }
                self.buf.push(PollFd { fd: r.fd, events: mask, revents: 0 });
            }
            let timeout_ms = super::timeout_ms(timeout);
            let nfds = self.buf.len() as u32;
            // Safety: `buf` holds `nfds` live pollfd entries for the call.
            let n = unsafe { poll(self.buf.as_mut_ptr(), nfds, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (slot, r) in self.buf.iter().zip(self.registered.iter()) {
                let re = slot.revents;
                if re == 0 {
                    continue;
                }
                out.push(Event {
                    token: r.token,
                    readable: re & POLLIN != 0,
                    writable: re & POLLOUT != 0,
                    closed: re & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Stub backend (non-Unix)
// ---------------------------------------------------------------------------

#[cfg(not(unix))]
mod imp {
    use super::Event;
    use std::io;
    use std::time::Duration;

    /// Readiness multiplexing needs OS support this target does not expose
    /// without external crates; [`Poller::new`] reports `Unsupported` and the
    /// gateway refuses to start.
    pub(crate) struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "quadra-gateway requires a Unix target"))
        }

        pub fn register(&mut self, _fd: i32, _token: u64, _r: bool, _w: bool) -> io::Result<()> {
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }

        pub fn modify(&mut self, _fd: i32, _token: u64, _r: bool, _w: bool) -> io::Result<()> {
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }

        pub fn deregister(&mut self, _fd: i32) -> io::Result<()> {
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }

        pub fn wait(&mut self, _timeout: Option<Duration>, _out: &mut Vec<Event>) -> io::Result<()> {
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }
    }
}

/// Readiness multiplexer over raw fds: epoll on 64-bit Linux, `poll(2)`
/// elsewhere on Unix.
pub(crate) struct Poller {
    imp: imp::Poller,
}

impl Poller {
    /// Create the OS readiness instance.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { imp: imp::Poller::new()? })
    }

    /// Start watching `fd` under `token` for the given interests.
    pub fn register(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.imp.register(fd, token, readable, writable)
    }

    /// Replace the interests of an already-registered `fd`.
    pub fn modify(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.imp.modify(fd, token, readable, writable)
    }

    /// Stop watching `fd`.
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        self.imp.deregister(fd)
    }

    /// Block for up to `timeout` (forever when `None`) and append ready
    /// events to `out`. Returns normally on `EINTR` with no events.
    pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
        self.imp.wait(timeout, out)
    }
}

// ---------------------------------------------------------------------------
// Waker
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod waker_imp {
    use std::io;

    const EFD_CLOEXEC: i32 = 0x8_0000;
    const EFD_NONBLOCK: i32 = 0x800;

    extern "C" {
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// An eventfd: one fd, written by notifying threads, read by the loop.
    pub(crate) struct Fds {
        fd: i32,
    }

    impl Fds {
        pub fn new() -> io::Result<Fds> {
            // Safety: eventfd takes two scalars and returns an fd or -1.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Fds { fd })
        }

        pub fn read_fd(&self) -> i32 {
            self.fd
        }

        pub fn signal(&self) {
            let one: u64 = 1;
            // Safety: writes 8 bytes from a live stack value. A full counter
            // (EAGAIN) already guarantees a pending wakeup, so the result is
            // intentionally ignored.
            unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // Safety: reads at most 8 bytes into a live stack buffer. The fd
            // is non-blocking; an empty counter returns EAGAIN, which is the
            // desired no-op.
            unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for Fds {
        fn drop(&mut self) {
            // Safety: the fd came from eventfd and is closed exactly once.
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(all(unix, not(all(target_os = "linux", target_pointer_width = "64"))))]
mod waker_imp {
    use std::io;

    extern "C" {
        fn pipe(fds: *mut i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// A self-pipe. The fds stay blocking: the loop only reads after `poll`
    /// reported readability, and the writer sends at most one byte per
    /// outstanding wakeup (the [`super::Waker`] `pending` flag coalesces), so
    /// neither side can stall.
    pub(crate) struct Fds {
        read_end: i32,
        write_end: i32,
    }

    impl Fds {
        pub fn new() -> io::Result<Fds> {
            let mut fds = [0i32; 2];
            // Safety: pipe writes two fds into a live 2-element array.
            let rc = unsafe { pipe(fds.as_mut_ptr()) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            let [read_end, write_end] = fds;
            Ok(Fds { read_end, write_end })
        }

        pub fn read_fd(&self) -> i32 {
            self.read_end
        }

        pub fn signal(&self) {
            let one = [1u8];
            // Safety: writes one byte from a live buffer.
            unsafe { write(self.write_end, one.as_ptr(), 1) };
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // Safety: reads into a live buffer; at most one byte is ever
            // outstanding, so a post-readiness read cannot block.
            unsafe { read(self.read_end, buf.as_mut_ptr(), buf.len()) };
        }
    }

    impl Drop for Fds {
        fn drop(&mut self) {
            // Safety: both fds came from pipe() and are closed exactly once.
            unsafe {
                close(self.read_end);
                close(self.write_end);
            }
        }
    }
}

#[cfg(not(unix))]
mod waker_imp {
    use std::io;

    pub(crate) struct Fds;

    impl Fds {
        pub fn new() -> io::Result<Fds> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "quadra-gateway requires a Unix target"))
        }

        pub fn read_fd(&self) -> i32 {
            -1
        }

        pub fn signal(&self) {}

        pub fn drain(&self) {}
    }
}

/// Cross-thread wakeup for the event loop: an engine thread that just pushed
/// a completion (or a shutdown request) signals, the loop's poller observes
/// the waker fd as readable and drains it. Signals coalesce through
/// `pending`, so a stalled loop accumulates exactly one outstanding
/// byte/count no matter how many notifications raced in.
///
/// The contract with the consumer: publish, then `notify`; on the loop side
/// `drain`, then look at what was published. A `notify` that lands while
/// `drain` runs may leave no fd event behind, but its data was published
/// before `drain` returned, so the look that follows finds it.
pub(crate) struct Waker {
    fds: waker_imp::Fds,
    pending: AtomicBool,
}

impl Waker {
    /// Create the wakeup channel (eventfd on 64-bit Linux, self-pipe on
    /// other Unix).
    pub fn new() -> io::Result<Waker> {
        Ok(Waker { fds: waker_imp::Fds::new()?, pending: AtomicBool::new(false) })
    }

    /// The fd the event loop registers for readability.
    pub fn read_fd(&self) -> i32 {
        self.fds.read_fd()
    }

    /// Wake the event loop (idempotent while a wakeup is pending).
    pub fn notify(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            self.fds.signal();
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
        self.fds.drain();
        self.pending.swap(false, Ordering::AcqRel);
    }
}

// Safety: the fds are plain integers used through syscalls that are safe to
// invoke from any thread; `pending` is atomic.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(all(unix, test))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_reports_readability_on_a_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(stream_fd(&server), 7, true, false).unwrap();

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
        poller.deregister(stream_fd(&server)).unwrap();
    }

    #[test]
    fn poller_modify_switches_interest_to_writable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let _ = client;

        let mut poller = Poller::new().unwrap();
        poller.register(stream_fd(&server), 3, true, false).unwrap();
        poller.modify(stream_fd(&server), 3, false, true).unwrap();
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(1000)), &mut events).unwrap();
        // An idle socket with room in its send buffer is writable.
        assert_eq!(events.len(), 1);
        assert!(events[0].writable);
        assert!(!events[0].readable);
    }

    #[test]
    fn waker_wakes_the_poller_and_coalesces() {
        let waker = Waker::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(waker.read_fd(), 1, true, false).unwrap();

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
        poller.register(waker.read_fd(), 1, true, false).unwrap();
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
