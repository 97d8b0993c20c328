package api

import (
	"fmt"
	"hash/crc32"
	"strconv"
)

// Streaming-sweep line integrity.
//
// A fabric coordinator dispatching a grid range cannot trust the
// network with the response bytes: a single flipped byte inside a JSON
// value can survive every structural check (the line still parses) and
// silently break the fabric's byte-identity oracle. Setting
// HeaderSweepIntegrity: IntegrityCRC32C on a streaming sweep request
// asks the server to frame every result line as
//
//	<crc32c as 8 lowercase hex digits> ' ' <line>
//
// where the checksum covers the line bytes including the trailing
// newline. The receiver verifies and strips the prefix before merging,
// so the reassembled output stays byte-identical to an unframed
// stream. Terminal {"error": ...} records are never framed — their
// leading '{' cannot collide with a hex prefix, and they abort the
// range regardless.
const (
	HeaderSweepIntegrity = "X-Sweep-Integrity"
	IntegrityCRC32C      = "crc32c"
)

// frameLen is the prefix length: 8 hex digits plus one space.
const frameLen = crc32.Size*2 + 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrameLine appends the integrity frame and the line to dst,
// reusing its capacity — the streaming path frames every point into
// one scratch buffer instead of allocating per line.
func AppendFrameLine(dst, line []byte) []byte {
	dst = fmt.Appendf(dst, "%08x ", crc32.Checksum(line, castagnoli))
	return append(dst, line...)
}

// UnframeLine verifies one framed line and returns its payload
// (aliased into framed). A missing or unparsable prefix and a checksum
// mismatch are both reported as errors: the caller asked for framing,
// so an unframed line is itself evidence of corruption.
func UnframeLine(framed []byte) ([]byte, error) {
	if len(framed) <= frameLen || framed[frameLen-1] != ' ' {
		return nil, fmt.Errorf("api: integrity frame missing on %d-byte line", len(framed))
	}
	want, err := strconv.ParseUint(string(framed[:frameLen-1]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("api: integrity frame unparsable: %v", err)
	}
	line := framed[frameLen:]
	if got := crc32.Checksum(line, castagnoli); got != uint32(want) {
		return nil, fmt.Errorf("api: line checksum mismatch: computed %08x, framed %08x", got, want)
	}
	return line, nil
}
