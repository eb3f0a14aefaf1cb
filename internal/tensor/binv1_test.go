package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// writeBinaryV1 emits the legacy checksum-free PSTB v1 layout. No
// program writes v1 any more; the tests keep this writer so the read
// path's v1 acceptance, fault handling and fuzz corpus stay fed with
// real v1 images.
func writeBinaryV1(w io.Writer, t *COO) error {
	order := t.Order()
	if order < 1 || order > 255 {
		return fmt.Errorf("tensor: order %d outside binary format range [1,255]", order)
	}
	scratch, put := acquireScratch(uint64(order+1) * 4 * uint64(t.NNZ()))
	defer put()
	bw := bufio.NewWriterSize(w, len(scratch))
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(binVersion1); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(order)); err != nil {
		return err
	}
	if err := writeU32Chunked(bw, t.Dims, scratch); err != nil {
		return err
	}
	var nnzBuf [8]byte
	binary.LittleEndian.PutUint64(nnzBuf[:], uint64(t.NNZ()))
	if _, err := bw.Write(nnzBuf[:]); err != nil {
		return err
	}
	for n := range t.Inds {
		if err := writeU32Chunked(bw, t.Inds[n], scratch); err != nil {
			return err
		}
	}
	if err := writeF32Chunked(bw, t.Vals, scratch); err != nil {
		return err
	}
	return bw.Flush()
}
