package seqio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"omegago/internal/bitvec"
)

// vcfRec is one decoded biallelic SNP record: its position and its
// allele states already packed into bit words — the allele-compression
// step of Fig. 3's preprocessing stage. row and valid alias the
// decoder's scratch words and are overwritten by the next call to next.
type vcfRec struct {
	pos     float64
	row     []uint64 // bit h set iff haplotype h carries allele 1
	valid   []uint64 // bit h set iff haplotype h is not missing ('.')
	missing bool     // some haplotype is missing
}

// pack copies the record's words into a fresh SNP bit row and an
// optional validity mask (nil when no allele is missing).
func (r vcfRec) pack(haplos int) (row, mask *bitvec.Vector) {
	row = bitvec.AdoptWords(slices.Clone(r.row), haplos)
	if r.missing {
		mask = bitvec.AdoptWords(slices.Clone(r.valid), haplos)
	}
	return row, mask
}

// vcfDecoder scans VCF records one at a time — the shared core of the
// whole-file ParseVCF and the chunked VCFSource. It performs the full
// per-record validation (header presence, single chromosome, GT field,
// consistent haplotype counts) so both consumers reject malformed input
// with identical errors.
//
// Decoding is one forward byte-level pass per record line straight out
// of the scanner's buffer: the nine fixed columns are cut, then each
// sample's GT sub-field is walked byte by byte, validating the alleles
// and packing them into the row and validity words as it goes. After
// the first record (which fixes the haplotype count and sample names)
// next allocates nothing.
type vcfDecoder struct {
	sc         *bufio.Scanner
	haplos     int // fixed after the first record
	sampleCols []string
	hapNames   []string
	chrom      string
	sawHeader  bool
	bytesRead  int64    // input text bytes consumed, including skipped lines
	row, valid []uint64 // packing scratch: WordsFor(haplos) words once haplos is fixed
}

// newVCFDecoder wraps a VCF text stream.
func newVCFDecoder(r io.Reader) *vcfDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	return &vcfDecoder{sc: sc}
}

// next decodes the next usable biallelic SNP record. ok=false with a
// nil error means clean EOF.
func (d *vcfDecoder) next() (rec vcfRec, ok bool, err error) {
	for d.sc.Scan() {
		line := d.sc.Bytes()
		d.bytesRead += int64(len(line)) + 1
		if len(line) == 0 || bytes.HasPrefix(line, []byte("##")) {
			continue
		}
		if bytes.HasPrefix(line, []byte("#CHROM")) {
			fields := strings.Split(string(line), "\t")
			if len(fields) < 10 {
				return rec, false, fmt.Errorf("seqio: VCF header has no sample columns")
			}
			d.sampleCols = fields[9:]
			d.sawHeader = true
			continue
		}
		if !d.sawHeader {
			return rec, false, fmt.Errorf("seqio: VCF record before #CHROM header")
		}
		rec, ok, err = d.decode(line)
		if err != nil {
			return rec, false, err
		}
		if ok {
			return rec, true, nil
		}
	}
	if err := d.sc.Err(); err != nil {
		return rec, false, fmt.Errorf("seqio: reading VCF: %w", err)
	}
	return rec, false, nil
}

// decode decodes one record line. ok=false with a nil error means the
// record is not a biallelic SNP and is skipped.
func (d *vcfDecoder) decode(line []byte) (rec vcfRec, ok bool, err error) {
	var fixed [9][]byte
	rest := line
	for k := range fixed {
		j := bytes.IndexByte(rest, '\t')
		if j < 0 {
			return rec, false, fmt.Errorf("seqio: VCF record with %d fields, want ≥10", k+1)
		}
		fixed[k], rest = rest[:j], rest[j+1:]
	}
	chrom, posField := fixed[0], fixed[1]
	if d.chrom == "" {
		d.chrom = string(chrom)
	} else if string(chrom) != d.chrom {
		return rec, false, fmt.Errorf("seqio: multiple chromosomes in VCF (%q and %q); split the input", d.chrom, chrom)
	}
	ref, alt := fixed[3], fixed[4]
	if len(ref) != 1 || len(alt) != 1 || alt[0] == '.' {
		return rec, false, nil // not a biallelic SNP
	}
	pos, err := strconv.ParseFloat(string(posField), 64)
	if err != nil {
		return rec, false, fmt.Errorf("seqio: bad VCF POS %q", posField)
	}
	gtIdx := formatGTIndex(fixed[8])
	if gtIdx == -1 {
		return rec, false, fmt.Errorf("seqio: VCF record at %s:%s lacks GT", chrom, posField)
	}
	missing, err := d.packSamples(rest, gtIdx, chrom, posField)
	if err != nil {
		return rec, false, err
	}
	return vcfRec{pos: pos, row: d.row, valid: d.valid, missing: missing}, true, nil
}

// formatGTIndex returns the index of the first "GT" key in a
// colon-separated FORMAT column, or -1.
func formatGTIndex(format []byte) int {
	for i := 0; ; i++ {
		key, after, more := bytes.Cut(format, []byte(":"))
		if string(key) == "GT" {
			return i
		}
		if !more {
			return -1
		}
		format = after
	}
}

// vcfGTStop marks the bytes that end one allele of a GT sub-field: the
// '|' and '/' separators, the ':' that ends the sub-field, and the tab
// that ends the sample column.
var vcfGTStop = [256]bool{'|': true, '/': true, ':': true, '\t': true}

// packSamples walks the tab-separated sample columns of one record,
// validating each GT sub-field and packing its alleles into d.row
// (allele 1) and d.valid (not missing). On the first record it grows the
// scratch words, fixes d.haplos and names the haplotypes; later records
// must carry exactly d.haplos alleles. It reports whether any allele was
// missing.
func (d *vcfDecoder) packSamples(s []byte, gtIdx int, chrom, posField []byte) (missing bool, err error) {
	first := d.haplos == 0
	if first {
		d.row, d.valid = d.row[:0], d.valid[:0]
	}
	var wr, wv uint64 // the word being filled; haplotype h is bit h%64
	h := 0            // haplotypes seen
	n := len(s)
	i := 0
	for si := 0; ; si++ {
		start, h0 := i, h
		for k := 0; k < gtIdx; k++ {
			for i < n && s[i] != ':' && s[i] != '\t' {
				i++
			}
			if i == n || s[i] == '\t' {
				return false, fmt.Errorf("seqio: sample field %q missing GT", s[start:i])
			}
			i++
		}
		for {
			// An allele is one byte followed by a stop byte or the end.
			j := i + 1
			if i == n || vcfGTStop[s[i]] || (j < n && !vcfGTStop[s[j]]) {
				for j = i; j < n && !vcfGTStop[s[j]]; j++ {
				}
				return false, fmt.Errorf("seqio: unsupported allele %q at %s:%s", s[i:j], chrom, posField)
			}
			if v := uint64(s[i] - '0'); v <= 1 {
				wr |= v << (h & 63)
				wv |= 1 << (h & 63)
			} else if s[i] == '.' {
				missing = true
			} else {
				return false, fmt.Errorf("seqio: unsupported allele %q at %s:%s", s[i:j], chrom, posField)
			}
			if h++; h&63 == 0 {
				d.storeWord(h>>6-1, wr, wv, first)
				wr, wv = 0, 0
			}
			i = j
			if i == n || s[i] == ':' || s[i] == '\t' {
				break
			}
			i++ // past '|' or '/'
		}
		if first && si < len(d.sampleCols) {
			name := d.sampleCols[si]
			if h-h0 == 1 {
				d.hapNames = append(d.hapNames, name)
			} else {
				for k := 1; k <= h-h0; k++ {
					d.hapNames = append(d.hapNames, fmt.Sprintf("%s.%d", name, k))
				}
			}
		}
		if i < n && s[i] == ':' {
			if j := bytes.IndexByte(s[i:], '\t'); j < 0 {
				i = n
			} else {
				i += j
			}
		}
		if i == n {
			break
		}
		i++ // past the tab: the next sample column (possibly empty)
	}
	if h&63 != 0 {
		d.storeWord(h>>6, wr, wv, first)
	}
	if first {
		d.haplos = h
	} else if h != d.haplos {
		return false, fmt.Errorf("seqio: inconsistent haplotype count %d (want %d) at %s:%s",
			h, d.haplos, chrom, posField)
	}
	return missing, nil
}

// storeWord writes packed word wi of the current record. The first
// record grows the scratch; a later record with more alleles than
// d.haplos drops the excess words, and packSamples rejects it once every
// allele has been validated.
func (d *vcfDecoder) storeWord(wi int, wr, wv uint64, first bool) {
	switch {
	case wi < len(d.row):
		d.row[wi], d.valid[wi] = wr, wv
	case first:
		d.row, d.valid = append(d.row, wr), append(d.valid, wv)
	}
}

// ParseVCF reads a minimal subset of VCF 4.x sufficient for sweep scans:
// biallelic SNP records with GT genotype fields. Diploid genotypes are
// split into two haplotypes per sample; '.' alleles become missing data.
// Records that are not biallelic SNPs (indels, multi-ALT) are skipped.
// All records must belong to a single chromosome (the first one seen).
// Each record is packed into its bit row as it is decoded.
func ParseVCF(r io.Reader) (*Alignment, error) {
	dec := newVCFDecoder(r)
	var positions []float64
	var m *bitvec.Matrix
	length := 0.0
	for {
		rec, ok, err := dec.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if m == nil {
			m = bitvec.NewMatrix(dec.haplos)
		}
		m.AppendRow(rec.pack(dec.haplos))
		positions = append(positions, rec.pos)
		if rec.pos > length {
			length = rec.pos
		}
	}
	if len(positions) == 0 {
		return nil, fmt.Errorf("seqio: no usable biallelic SNP records in VCF")
	}
	a := &Alignment{Positions: positions, Length: length, Matrix: m}
	if len(dec.hapNames) == dec.haplos {
		a.SampleNames = dec.hapNames
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
