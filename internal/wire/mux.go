// Multiplexed framing: protocol version 2 of the peer transport, the only
// one peers speak.
//
// A connection opens with an 8-byte hello from the client (magic + highest
// supported version); the server answers with the same shape carrying the
// version both sides will run. The hello is a version check only: from then
// on every frame is {stream ID, length, body}, many logical calls interleave
// on the one connection, and replies come back tagged with the stream they
// answer, in whatever order subtrees complete. A server whose first bytes
// from a client are not a hello drops the connection.
//
// Version 1 carried gob bodies; version 2 carries the binary codec of
// codec.go. The two cannot decode each other, so a hello or ack naming a
// version below 2 — version 0 included — fails with a *VersionError instead
// of a later decode error.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// muxMagic opens a mux hello ("RPLX").
const muxMagic = 0x52504C58

// MuxVersion is the mux protocol version this build speaks. The server acks
// the minimum of its own and the client's version.
const MuxVersion = 2

// VersionError reports a hello or ack naming a protocol version whose frame
// bodies this build cannot decode (anything below MuxVersion).
type VersionError struct {
	Version uint32
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: peer speaks mux version %d, this build needs %d", e.Version, MuxVersion)
}

// checkVersion rejects every version below MuxVersion.
func checkVersion(v uint32) (uint32, error) {
	if v < MuxVersion {
		return v, &VersionError{Version: v}
	}
	return v, nil
}

// WriteMuxHello writes a hello or ack: magic followed by a version word.
func WriteMuxHello(w io.Writer, version uint32) error {
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], muxMagic)
	binary.BigEndian.PutUint32(b[4:], version)
	if _, err := w.Write(b[:]); err != nil {
		return fmt.Errorf("wire: write mux hello: %w", err)
	}
	return nil
}

// ReadMuxHello reads a full hello/ack and returns its version; a version
// this build cannot decode is a *VersionError.
func ReadMuxHello(r io.Reader) (uint32, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	if binary.BigEndian.Uint32(b[:4]) != muxMagic {
		return 0, fmt.Errorf("wire: not a mux hello")
	}
	return checkVersion(binary.BigEndian.Uint32(b[4:]))
}

// WriteMuxFrame frames and writes one message on the given stream.
func WriteMuxFrame(w io.Writer, stream uint32, msg Message) error {
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], stream)
	return writeFrame(w, head[:], msg)
}

// ReadMuxFrame reads one mux frame into msg and returns its stream ID. On a
// *FrameSizeError the stream ID is still valid — the body is unread, so the
// connection cannot be resynchronised, but the server can report the
// rejection on the offending stream before dropping the connection.
func ReadMuxFrame(r io.Reader, msg Message) (uint32, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err // io.EOF signals a cleanly closed connection
	}
	stream := binary.BigEndian.Uint32(hdr[:4])
	return stream, readBody(r, binary.BigEndian.Uint32(hdr[4:]), msg)
}

// OverloadedPrefix marks a Reply.Error produced by the server's admission
// control rather than by query processing: the worker pool and its queue
// were full, and the call was rejected instead of stalling the socket.
// Unlike a processing error, an overload is transient by construction, so
// the caller retries it under the normal backoff policy.
const OverloadedPrefix = "overloaded: "

// Overloaded builds an admission-control Reply.Error.
func Overloaded(detail string) string { return OverloadedPrefix + detail }

// IsOverloaded reports whether a Reply.Error came from admission control.
func IsOverloaded(errMsg string) bool { return strings.HasPrefix(errMsg, OverloadedPrefix) }
