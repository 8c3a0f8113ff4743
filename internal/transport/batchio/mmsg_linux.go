//go:build linux && (amd64 || arm64)

package batchio

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// BatchSize is the largest number of messages one sendmmsg/recvmmsg syscall
// carries; longer batches loop, costing ⌈n/BatchSize⌉ kernel crossings.
const BatchSize = 64

// mmsghdr mirrors struct mmsghdr. Go pads the struct to the alignment of
// Msghdr (8 on 64-bit), matching the kernel's array stride.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
}

// groCtl is one receive's control buffer, 8-byte aligned as cmsghdr wants:
// room for one UDP_GRO message, CMSG_SPACE(sizeof(int)) = 24 bytes on
// 64-bit Linux. It is the only control message a socket here asks for.
type groCtl [3]uint64

// segment reports the segment size of the UDP_GRO message among the first n
// control bytes the kernel wrote, or 0 if there is none (no GRO on the
// socket, or a datagram the kernel did not coalesce).
func (c *groCtl) segment(n uint64) int {
	if n < syscall.SizeofCmsghdr+4 {
		return 0
	}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(c))
	if h.Level != syscall.IPPROTO_UDP || h.Type != udpGRO {
		return 0
	}
	return int(*(*int32)(unsafe.Pointer(&c[2])))
}

// mmsgConn is the Linux vectored path: one syscall moves up to BatchSize
// datagrams. All per-call kernel structures are preallocated at construction
// so the steady state performs zero heap allocations.
type mmsgConn struct {
	c  *net.UDPConn
	rc syscall.RawConn

	smu         sync.Mutex // send state below
	shdrs       [BatchSize]mmsghdr
	siov        [BatchSize]syscall.Iovec
	sname       [BatchSize]syscall.RawSockaddrInet6
	sendReadyFn func(fd uintptr) bool // bound once: no per-call closure alloc
	sendCount   int
	sendDone    int
	sendErr     error

	rmu         sync.Mutex // receive state below
	rhdrs       [BatchSize]mmsghdr
	riov        [BatchSize]syscall.Iovec
	rname       [BatchSize]syscall.RawSockaddrInet6
	rctl        [BatchSize]groCtl
	recvReadyFn func(fd uintptr) bool
	recvNowFn   func(fd uintptr) // recvReady for a passed deadline
	recvCount   int
	recvGot     int
	recvErr     error
}

// newPlatform returns the sendmmsg/recvmmsg implementation; callers that
// cannot obtain a RawConn (exotic wrapped conns) fall back transparently.
func newPlatform(c *net.UDPConn) Conn {
	rc, err := c.SyscallConn()
	if err != nil {
		return &oneConn{c: c}
	}
	m := &mmsgConn{c: c, rc: rc}
	m.sendReadyFn = m.sendReady
	m.recvReadyFn = m.recvReady
	m.recvNowFn = func(fd uintptr) { m.recvReady(fd) }
	return m
}

// SendBatch implements Conn: messages are packed into mmsghdrs and flushed
// with as few sendmmsg syscalls as the batch size allows.
func (m *mmsgConn) SendBatch(msgs []Message) (int, error) {
	m.smu.Lock()
	defer m.smu.Unlock()
	total := 0
	for total < len(msgs) {
		n := len(msgs) - total
		if n > BatchSize {
			n = BatchSize
		}
		chunk := msgs[total : total+n]
		for i := range chunk {
			iov := &m.siov[i]
			iov.Base = &chunk[i].Buf[0]
			iov.SetLen(len(chunk[i].Buf))
			hdr := &m.shdrs[i].Hdr
			*hdr = syscall.Msghdr{Iov: iov, Iovlen: 1}
			if a := chunk[i].Addr; a != nil {
				hdr.Name = (*byte)(unsafe.Pointer(&m.sname[i]))
				hdr.Namelen = encodeSockaddr(&m.sname[i], a)
			}
			m.shdrs[i].Len = 0
		}
		m.sendCount = n
		m.sendDone = 0
		m.sendErr = nil
		err := m.rc.Write(m.sendReadyFn)
		total += m.sendDone
		if err == nil {
			err = m.sendErr
		}
		if err != nil {
			runtime.KeepAlive(msgs)
			return total, err
		}
	}
	runtime.KeepAlive(msgs)
	return total, nil
}

// sendReady performs the nonblocking sendmmsg; returning false parks the
// goroutine on the runtime poller until the socket drains.
func (m *mmsgConn) sendReady(fd uintptr) bool {
	for m.sendDone < m.sendCount {
		r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&m.shdrs[m.sendDone])),
			uintptr(m.sendCount-m.sendDone), 0, 0, 0)
		switch errno {
		case 0:
			m.sendDone += int(r)
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			m.sendErr = os.NewSyscallError("sendmmsg", errno)
			return true
		}
	}
	return true
}

// RecvBatch implements Conn: one recvmmsg drains up to min(len(msgs),
// BatchSize) queued messages; it blocks (via the poller, honouring the read
// deadline) only when the queue is empty. On a socket with UDP GRO a message
// may be a coalesced burst, its segment size in Seg; a burst larger than its
// buffer (MSG_TRUNC) is cut to the whole segments that fit, so no caller
// decodes a datagram's head as the datagram.
func (m *mmsgConn) RecvBatch(msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	m.rmu.Lock()
	defer m.rmu.Unlock()
	n := len(msgs)
	if n > BatchSize {
		n = BatchSize
	}
	for i := 0; i < n; i++ {
		iov := &m.riov[i]
		iov.Base = &msgs[i].Buf[0]
		iov.SetLen(len(msgs[i].Buf))
		hdr := &m.rhdrs[i].Hdr
		*hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&m.rname[i])),
			Namelen: syscall.SizeofSockaddrInet6,
			Iov:     iov,
			Iovlen:  1,
			Control: (*byte)(unsafe.Pointer(&m.rctl[i])),
		}
		hdr.SetControllen(int(unsafe.Sizeof(m.rctl[i])))
		m.rhdrs[i].Len = 0
	}
	m.recvCount = n
	m.recvGot = 0
	m.recvErr = nil
	err := m.rc.Read(m.recvReadyFn)
	if errors.Is(err, os.ErrDeadlineExceeded) && m.rc.Control(m.recvNowFn) == nil &&
		(m.recvGot > 0 || m.recvErr != nil) {
		err = nil // the deadline passed before the read: take what is queued
	}
	if err == nil {
		err = m.recvErr
	}
	if err != nil {
		runtime.KeepAlive(msgs)
		return 0, err
	}
	for i := 0; i < m.recvGot; i++ {
		hdr := &m.rhdrs[i].Hdr
		msgs[i].N = int(m.rhdrs[i].Len)
		msgs[i].Seg = m.rctl[i].segment(hdr.Controllen)
		if seg := msgs[i].Seg; seg > 0 && hdr.Flags&syscall.MSG_TRUNC != 0 {
			msgs[i].N -= msgs[i].N % seg
		}
		if msgs[i].Addr != nil {
			decodeSockaddr(msgs[i].Addr, &m.rname[i])
		}
	}
	runtime.KeepAlive(msgs)
	return m.recvGot, nil
}

// recvReady performs the nonblocking recvmmsg; returning false parks the
// goroutine on the poller until a datagram arrives or the deadline fires.
func (m *mmsgConn) recvReady(fd uintptr) bool {
	for {
		r, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&m.rhdrs[0])),
			uintptr(m.recvCount), uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case 0:
			m.recvGot = int(r)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			m.recvErr = os.NewSyscallError("recvmmsg", errno)
			return true
		}
	}
}

// encodeSockaddr writes a into dst's storage (the Inet6 layout covers Inet4)
// and reports the sockaddr length for msg_namelen.
func encodeSockaddr(dst *syscall.RawSockaddrInet6, a *net.UDPAddr) uint32 {
	if ip4 := a.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(dst))
		sa.Family = syscall.AF_INET
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0] = byte(a.Port >> 8)
		p[1] = byte(a.Port)
		copy(sa.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4
	}
	dst.Family = syscall.AF_INET6
	p := (*[2]byte)(unsafe.Pointer(&dst.Port))
	p[0] = byte(a.Port >> 8)
	p[1] = byte(a.Port)
	copy(dst.Addr[:], a.IP.To16())
	return syscall.SizeofSockaddrInet6
}

// decodeSockaddr rewrites dst in place from the kernel-filled sockaddr,
// reusing dst's IP backing array (the receive loops provide cap ≥ 16).
func decodeSockaddr(dst *net.UDPAddr, src *syscall.RawSockaddrInet6) {
	switch src.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(src))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		dst.Port = int(p[0])<<8 | int(p[1])
		if cap(dst.IP) >= 4 {
			dst.IP = dst.IP[:4]
			copy(dst.IP, sa.Addr[:])
		} else {
			dst.IP = append(dst.IP[:0], sa.Addr[:]...)
		}
	case syscall.AF_INET6:
		p := (*[2]byte)(unsafe.Pointer(&src.Port))
		dst.Port = int(p[0])<<8 | int(p[1])
		if cap(dst.IP) >= 16 {
			dst.IP = dst.IP[:16]
			copy(dst.IP, src.Addr[:])
		} else {
			dst.IP = append(dst.IP[:0], src.Addr[:]...)
		}
	}
	dst.Zone = ""
}
