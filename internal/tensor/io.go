package tensor

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteTNS emits the tensor in FROSTT .tns text format with 1-based
// coordinates. Values are formatted with the shortest decimal string
// that round-trips through float32 ('g', precision -1, bitSize 32), so
// write→read reproduces every value bit-exactly; %g-style fixed
// precision would truncate e.g. 0.30000001 to 0.3.
func WriteTNS(w io.Writer, t *COO) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	line := make([]byte, 0, 64)
	m := t.NNZ()
	for x := 0; x < m; x++ {
		line = line[:0]
		for n := 0; n < t.Order(); n++ {
			line = strconv.AppendUint(line, uint64(t.Inds[n][x])+1, 10)
			line = append(line, ' ')
		}
		line = strconv.AppendFloat(line, float64(t.Vals[x]), 'g', -1, 32)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTNSFile writes a .tns file to disk, gzip-compressed when the path
// ends in ".gz".
func WriteTNSFile(path string, t *COO) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		if err := WriteTNS(gz, t); err != nil {
			gz.Close()
			f.Close()
			return err
		}
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := WriteTNS(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
