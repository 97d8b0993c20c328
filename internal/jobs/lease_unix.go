//go:build unix

package jobs

import (
	"errors"
	"os"
	"syscall"
)

// acquireLease takes a non-blocking exclusive advisory flock on path,
// creating the file if needed. It returns ErrLeaseHeld when another
// open file holds the lock, in this process or another. The kernel
// releases the lock when the holder dies, so a kill -9 never leaves a
// stale lease behind (unlike a pid file).
func acquireLease(path string) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, ErrLeaseHeld
		}
		return nil, err
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}
