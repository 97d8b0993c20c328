//go:build !unix

package jobs

// acquireLease is a no-op on platforms without flock semantics; the
// per-job lease and the directory's .manager lock are advisory and
// Unix-only.
func acquireLease(path string) (release func(), err error) {
	return func() {}, nil
}
