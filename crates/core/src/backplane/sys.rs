//! The one address of `unsafe` in `crates/core`: the Linux socket calls std
//! does not wrap — `sendmsg` with a `UDP_SEGMENT` control message, `recvmsg`
//! with `UDP_GRO`, `poll` and `setsockopt` — declared by hand (no `libc`
//! crate is vendored) and offered to [`super::udp`] as safe functions over
//! slices and [`UdpSocket`]s. `make one-core` keeps it the only one.
//!
//! The structs mirror 64-bit Linux (`msghdr`, `iovec`, `cmsghdr`, `pollfd`,
//! `sockaddr_in`); the size assertions below turn a layout slip — or a
//! build for a platform with another ABI — into a compile error instead of
//! a corrupted send.

use std::ffi::{c_int, c_ulong, c_void};
use std::io;
use std::mem::size_of;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::os::fd::AsRawFd;

const AF_INET: u16 = 2;
const SOL_UDP: c_int = 17;
const UDP_SEGMENT: c_int = 103;
const UDP_GRO: c_int = 104;
const MSG_CTRUNC: c_int = 0x08;
const MSG_TRUNC: c_int = 0x20;
const POLLIN: i16 = 0x001;

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

/// `struct msghdr`.
#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: c_int,
}

/// `struct cmsghdr`; its data follows at the next 8-byte boundary.
#[repr(C)]
#[derive(Default)]
struct CMsgHdr {
    len: usize,
    level: c_int,
    ty: c_int,
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

/// `struct sockaddr_in`; port and address in network byte order.
#[repr(C)]
#[derive(Default)]
struct SockAddrIn {
    family: u16,
    port_be: u16,
    addr_be: u32,
    zero: [u8; 8],
}

/// One control message carrying a `T`, padded to `CMSG_SPACE(size_of::<T>())`
/// (`T` is at most 8 bytes here, so one alignment unit after the header).
#[repr(C)]
#[derive(Default)]
struct CMsg<T> {
    hdr: CMsgHdr,
    data: T,
    pad: [u8; 4],
}

const _: () = {
    assert!(size_of::<MsgHdr>() == 56);
    assert!(size_of::<CMsgHdr>() == 16);
    assert!(size_of::<IoVec>() == 16);
    assert!(size_of::<PollFd>() == 8);
    assert!(size_of::<SockAddrIn>() == 16);
    // CMSG_SPACE(2) and CMSG_SPACE(4) are both 24.
    assert!(size_of::<CMsg<u16>>() == 24);
    assert!(size_of::<CMsg<c_int>>() == 24);
};

extern "C" {
    fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
    fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, val: *const c_void, len: u32) -> c_int;
}

/// Ask the kernel to hand this socket a segmented send as the one coalesced
/// datagram it was, with the segment size in a control message.
pub(super) fn enable_gro(sock: &UdpSocket) -> io::Result<()> {
    let on: c_int = 1;
    // SAFETY: `val` points at a live `c_int` and `len` is its size; the
    // kernel copies it before the call returns.
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_UDP,
            UDP_GRO,
            (&on as *const c_int).cast(),
            size_of::<c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// One `sendmsg` of `bytes` to `to`, cut by the kernel into datagrams of
/// `seg_len` bytes (the last one whatever is left). Returns the bytes
/// accepted.
pub(super) fn send_segments(
    sock: &UdpSocket,
    to: SocketAddr,
    seg_len: usize,
    bytes: &[u8],
) -> io::Result<usize> {
    let SocketAddr::V4(to) = to else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "IPv4 peers only",
        ));
    };
    let seg_len = u16::try_from(seg_len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "segment longer than a datagram",
        )
    })?;
    let mut name = SockAddrIn {
        family: AF_INET,
        port_be: to.port().to_be(),
        addr_be: u32::from(*to.ip()).to_be(),
        zero: [0; 8],
    };
    let mut iov = IoVec {
        base: bytes.as_ptr().cast_mut().cast(),
        len: bytes.len(),
    };
    let mut cmsg = CMsg {
        hdr: CMsgHdr {
            len: size_of::<CMsgHdr>() + size_of::<u16>(),
            level: SOL_UDP,
            ty: UDP_SEGMENT,
        },
        data: seg_len,
        pad: [0; 4],
    };
    let msg = MsgHdr {
        name: (&mut name as *mut SockAddrIn).cast(),
        namelen: size_of::<SockAddrIn>() as u32,
        iov: &mut iov,
        iovlen: 1,
        control: (&mut cmsg as *mut CMsg<u16>).cast(),
        controllen: size_of::<CMsg<u16>>(),
        flags: 0,
    };
    // SAFETY: every pointer in `msg` is to a local that outlives the call
    // and each length is that object's size; `iov` covers exactly `bytes`,
    // which `sendmsg` only reads.
    let n = unsafe { sendmsg(sock.as_raw_fd(), &msg, 0) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

/// What one `recvmsg` returned.
pub(super) struct Received {
    /// Bytes of the datagram; more than the buffer holds when `truncated`.
    pub len: usize,
    /// Size of every segment but the last when the kernel coalesced; `len`
    /// for a plain datagram. Never 0.
    pub seg_len: usize,
    /// Source address.
    pub from: SocketAddr,
    /// The datagram or its control data did not fit (`MSG_TRUNC` /
    /// `MSG_CTRUNC`): the bytes in the buffer are not the whole of it.
    pub truncated: bool,
}

/// One non-blocking-socket `recvmsg` into `buf`.
pub(super) fn recv_segments(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<Received> {
    let mut name = SockAddrIn::default();
    let mut iov = IoVec {
        base: buf.as_mut_ptr().cast(),
        len: buf.len(),
    };
    let mut cmsg = CMsg::<c_int>::default();
    let mut msg = MsgHdr {
        name: (&mut name as *mut SockAddrIn).cast(),
        namelen: size_of::<SockAddrIn>() as u32,
        iov: &mut iov,
        iovlen: 1,
        control: (&mut cmsg as *mut CMsg<c_int>).cast(),
        controllen: size_of::<CMsg<c_int>>(),
        flags: 0,
    };
    // SAFETY: every pointer in `msg` is to a local (or to `buf`, borrowed
    // mutably for the call) and each length is that object's size, so the
    // kernel writes inside them. `MSG_TRUNC` only makes the return value the
    // datagram's real length.
    let n = unsafe { recvmsg(sock.as_raw_fd(), &mut msg, MSG_TRUNC) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    if msg.namelen as usize != size_of::<SockAddrIn>() || name.family != AF_INET {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "source is not IPv4",
        ));
    }
    let len = n as usize;
    let coalesced = msg.controllen >= size_of::<CMsgHdr>() + size_of::<c_int>()
        && cmsg.hdr.level == SOL_UDP
        && cmsg.hdr.ty == UDP_GRO
        && cmsg.data > 0;
    Ok(Received {
        len,
        seg_len: if coalesced {
            cmsg.data as usize
        } else {
            len.max(1)
        },
        from: SocketAddr::V4(SocketAddrV4::new(
            Ipv4Addr::from(u32::from_be(name.addr_be)),
            u16::from_be(name.port_be),
        )),
        truncated: msg.flags & (MSG_TRUNC | MSG_CTRUNC) != 0,
    })
}

/// The readiness set of one node: its rail sockets, asked in one `poll(2)`.
pub(super) struct PollSet(Vec<PollFd>);

impl PollSet {
    /// Watch `socks` for readability. The set holds descriptor numbers, not
    /// the sockets: polling one that has since closed reports it ready
    /// (`POLLNVAL`) and the receive that follows fails cleanly.
    pub fn new(socks: &[UdpSocket]) -> Self {
        PollSet(
            socks
                .iter()
                .map(|s| PollFd {
                    fd: s.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                })
                .collect(),
        )
    }

    /// One `poll(2)` with timeout 0. Returns how many sockets are ready.
    pub fn poll_now(&mut self) -> io::Result<usize> {
        // SAFETY: the pointer and count describe this `Vec`'s own elements,
        // which the kernel updates in place.
        let n = unsafe { poll(self.0.as_mut_ptr(), self.0.len() as c_ulong, 0) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    /// Whether the last [`PollSet::poll_now`] reported socket `i` ready
    /// (readable, or in an error state a receive will surface).
    pub fn ready(&self, i: usize) -> bool {
        self.0[i].revents != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    /// Poll `set` until its one socket is ready (loopback delivery is fast,
    /// not instantaneous).
    fn await_ready(set: &mut PollSet) {
        for _ in 0..2000 {
            if set.poll_now().unwrap() == 1 {
                assert!(set.ready(0));
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("socket never became readable");
    }

    #[test]
    fn segmented_send_arrives_coalesced_with_its_segment_size() {
        let (a, b) = pair();
        enable_gro(&b).expect("kernel offers UDP_GRO");
        let mut set = PollSet::new(std::slice::from_ref(&b));
        assert_eq!(set.poll_now().unwrap(), 0);
        assert!(!set.ready(0));
        let bytes: Vec<u8> = (0..250u8).collect();
        assert_eq!(
            send_segments(&a, b.local_addr().unwrap(), 100, &bytes).unwrap(),
            250
        );
        await_ready(&mut set);
        let mut buf = [0u8; 1024];
        let rx = recv_segments(&b, &mut buf).unwrap();
        assert_eq!((rx.len, rx.seg_len, rx.truncated), (250, 100, false));
        assert_eq!(rx.from, a.local_addr().unwrap());
        assert_eq!(&buf[..250], &bytes[..]);
        let err = recv_segments(&b, &mut buf).err().expect("queue is empty");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn plain_datagram_is_one_segment_and_truncation_is_flagged() {
        let (a, b) = pair();
        let mut set = PollSet::new(std::slice::from_ref(&b));
        a.send_to(&[7u8; 100], b.local_addr().unwrap()).unwrap();
        await_ready(&mut set);
        let mut small = [0u8; 10];
        let rx = recv_segments(&b, &mut small).unwrap();
        assert_eq!((rx.len, rx.seg_len, rx.truncated), (100, 100, true));
        a.send_to(&[], b.local_addr().unwrap()).unwrap();
        await_ready(&mut set);
        let rx = recv_segments(&b, &mut small).unwrap();
        assert_eq!((rx.len, rx.seg_len, rx.truncated), (0, 1, false));
    }
}
