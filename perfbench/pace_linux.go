package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer holds the run's epoch; every scheduled and measured time is an
// offset from it on the monotonic clock.
type pacer struct{ epoch time.Time }

func (p pacer) now() time.Duration { return time.Since(p.epoch) }

// sleeper wakes a load-generator goroutine when a request is due. Go
// timers wake up to a millisecond late for sub-millisecond sleeps, and a
// nanosleep(2) would hold the goroutine's P through the sleep and stall
// the server sharing the process; a non-blocking timerfd read parks the
// goroutine in the runtime's network poller instead, which frees the P and
// wakes within tens of microseconds.
type sleeper struct{ f *os.File }

// Linux timerfd constants: CLOCK_MONOTONIC, TFD_NONBLOCK, TFD_CLOEXEC.
const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) close() { s.f.Close() }

// until sleeps until due and returns how late it woke.
func (s *sleeper) until(p pacer, due time.Duration) time.Duration {
	var buf [8]byte
	for {
		d := due - p.now()
		if d <= 0 {
			return -d
		}
		// struct itimerspec{it_interval, it_value}: one relative expiry.
		spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.f.Fd(), 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno != 0 {
			time.Sleep(d) // cannot arm the timer: fall back to the runtime's
			continue
		}
		_, _ = s.f.Read(buf[:])
	}
}
