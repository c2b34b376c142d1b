package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Errors returned by name encoding and decoding.
var (
	ErrNameTooLong     = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong    = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel      = errors.New("dnswire: empty label inside name")
	ErrTruncated       = errors.New("dnswire: message truncated")
	ErrPointerLoop     = errors.New("dnswire: compression pointer loop")
	ErrBadPointer      = errors.New("dnswire: compression pointer out of range")
	ErrReservedLabel   = errors.New("dnswire: reserved label type")
	ErrDotInLabel      = errors.New("dnswire: label contains a '.' byte")
	ErrTrailingBytes   = errors.New("dnswire: trailing bytes after message")
	ErrTooManyRecords  = errors.New("dnswire: record count exceeds message size")
	ErrRDataOutOfRange = errors.New("dnswire: rdata length out of range")
)

// CanonicalName lower-cases a presentation-format name and strips one
// trailing dot (except for the root name "."). DNS names compare
// case-insensitively, and the analysis pipeline relies on canonical keys.
func CanonicalName(name string) string {
	if name == "." || name == "" {
		return "."
	}
	name = strings.ToLower(name)
	return strings.TrimSuffix(name, ".")
}

// splitLabels converts a presentation name ("www.example.com", optionally
// with a trailing dot) into labels. The root name yields no labels.
func splitLabels(name string) ([]string, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return nil, nil
	}
	labels := strings.Split(name, ".")
	for _, l := range labels {
		if l == "" {
			return nil, ErrEmptyLabel
		}
		if len(l) > MaxLabelLen {
			return nil, fmt.Errorf("%w: %q", ErrLabelTooLong, l)
		}
	}
	return labels, nil
}

// appendName encodes name starting at the current end of msg, using and
// updating the compression table ptrs (suffix -> offset). Compression
// pointers may only reference offsets < 0x4000 per RFC 1035.
func appendName(msg []byte, name string, ptrs map[string]int) ([]byte, error) {
	labels, err := splitLabels(name)
	if err != nil {
		return nil, err
	}
	// Wire length check: each label contributes len+1, plus the final root.
	wire := 1
	for _, l := range labels {
		wire += len(l) + 1
	}
	if wire > MaxNameLen {
		return nil, fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	for i := range labels {
		suffix := strings.ToLower(strings.Join(labels[i:], "."))
		if off, ok := ptrs[suffix]; ok {
			return append(msg, 0xC0|byte(off>>8), byte(off)), nil
		}
		if off := len(msg); off < 0x4000 && ptrs != nil {
			ptrs[suffix] = off
		}
		msg = append(msg, byte(len(labels[i])))
		msg = append(msg, labels[i]...)
	}
	return append(msg, 0), nil
}

// decodeName parses a possibly compressed name starting at off in msg.
// It returns the presentation-format name (lower-cased, no trailing dot,
// "." for root) and the offset just past the name in the original stream.
func decodeName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	// next is the offset to resume at after the first compression pointer.
	next := -1
	chases := 0
	total := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncated
		}
		b := msg[off]
		switch {
		case b == 0:
			if next == -1 {
				next = off + 1
			}
			name := sb.String()
			if name == "" {
				name = "."
			}
			return strings.ToLower(name), next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncated
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if next == -1 {
				next = off + 2
			}
			if ptr >= off {
				// Pointers must point strictly backwards; forward pointers
				// permit loops.
				return "", 0, ErrBadPointer
			}
			chases++
			if chases > maxPointerChases {
				return "", 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return "", 0, ErrReservedLabel
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, ErrTruncated
			}
			total += l + 1
			if total > MaxNameLen {
				return "", 0, ErrNameTooLong
			}
			label := msg[off+1 : off+1+l]
			if bytes.IndexByte(label, '.') >= 0 {
				// Presentation format cannot tell such a label from a label
				// boundary: the name would not survive re-encoding, and two
				// different wire names would compare equal.
				return "", 0, ErrDotInLabel
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(label)
			off += 1 + l
		}
	}
}
