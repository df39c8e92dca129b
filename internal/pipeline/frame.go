package pipeline

import (
	"encoding/binary"
	"hash/crc32"
)

// A frame is the one entry layout the store uses at rest and on the wire:
// pack segments are a magic header followed by frames, and every
// /v1/store body that carries entries (a write-behind batch, a batch
// get's hits) is a sequence of frames. All integers are big-endian:
//
//	uint32 crc32c(key ‖ value) | uint16 len(key) | uint32 len(value) | key | value
//
// appendFrame and nextFrame are the only encoder and decoder of it.

// frameHeaderLen is the fixed part of a frame: crc32 + keyLen16 + valLen32.
const frameHeaderLen = 10

// packCRC is Castagnoli — hardware-accelerated on amd64/arm64, so the
// per-read verify costs far less than the syscalls it replaces.
var packCRC = crc32.MakeTable(crc32.Castagnoli)

// wireCRC is the checksum a frame carries for key and val. The same
// value guards an entry on disk and on the wire, so a value round-trips
// server disk → wire → client under one checksum discipline.
func wireCRC(key string, val []byte) uint32 {
	sum := crc32.Checksum([]byte(key), packCRC)
	return crc32.Update(sum, packCRC, val)
}

// appendFrame appends the frame for key and val to buf. Callers bound the
// key to 1..65535 bytes; the CRC is computed over the bytes just written,
// so encoding allocates nothing beyond buf's growth.
func appendFrame(buf []byte, key string, val []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, 0)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(key)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, key...)
	buf = append(buf, val...)
	binary.BigEndian.PutUint32(buf[start:], crc32.Checksum(buf[start+frameHeaderLen:], packCRC))
	return buf
}

// frame is one decoded entry; key and val alias the decoded buffer.
type frame struct {
	crc      uint32 // as carried in the header
	key, val []byte
	size     int // bytes the whole frame occupies
}

// intact reports whether the frame's key and value match its CRC.
func (f frame) intact() bool {
	return crc32.Update(crc32.Checksum(f.key, packCRC), packCRC, f.val) == f.crc
}

// nextFrame decodes the frame at the head of buf. ok is false when buf
// does not start with a whole frame — a torn header, an empty key, or
// lengths that run past the end — and decoding must stop there. A frame
// that is whole but not intact is returned as is: each caller decides
// what a checksum failure costs.
func nextFrame(buf []byte) (f frame, ok bool) {
	if len(buf) < frameHeaderLen {
		return frame{}, false
	}
	klen := uint64(binary.BigEndian.Uint16(buf[4:6]))
	vlen := uint64(binary.BigEndian.Uint32(buf[6:10]))
	if klen == 0 || klen+vlen > uint64(len(buf)-frameHeaderLen) {
		return frame{}, false
	}
	end := frameHeaderLen + int(klen+vlen)
	body := buf[frameHeaderLen:end:end] // an append to val must not reach the next frame
	return frame{
		crc:  binary.BigEndian.Uint32(buf),
		key:  body[:klen],
		val:  body[klen:],
		size: end,
	}, true
}
