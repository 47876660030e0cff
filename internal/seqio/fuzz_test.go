package seqio

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The fuzz targets double as robustness tests: parsers must never
// panic, and anything they accept must satisfy the Alignment
// invariants. `go test` runs the seed corpus; `go test -fuzz=FuzzX`
// explores further.

func FuzzParseMS(f *testing.F) {
	f.Add(msSample)
	f.Add("//\nsegsites: 1\npositions: 0.5\n1\n0\n")
	f.Add("//\nsegsites: 0\npositions:\n")
	f.Add("garbage header\n//\nsegsites: 2\npositions: 0.1 0.2\n01\n10\n")
	f.Add("//\nsegsites: 2\npositions: 0.2 0.1\n01\n10\n")
	f.Add("//\nsegsites: 1\npositions: 1.5\n1\n")
	f.Fuzz(func(t *testing.T, in string) {
		reps, err := ParseMS(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, rep := range reps {
			if rep.SegSites != len(rep.Positions) {
				t.Fatalf("accepted replicate with %d segsites, %d positions",
					rep.SegSites, len(rep.Positions))
			}
			for _, h := range rep.Haplotypes {
				if len(h) != rep.SegSites {
					t.Fatal("accepted ragged haplotypes")
				}
			}
			prev := -1.0
			for _, p := range rep.Positions {
				if p < prev || p < 0 || p > 1 {
					t.Fatalf("accepted bad positions: %v", rep.Positions)
				}
				prev = p
			}
			if rep.SegSites > 0 && len(rep.Haplotypes) > 0 {
				if _, err := rep.ToAlignment(1000); err != nil {
					t.Fatalf("accepted replicate fails conversion: %v", err)
				}
			}
		}
	})
}

// FuzzParseVCF is differential: the byte-level decoder behind ParseVCF
// must agree with the reference strings.Split decoder (vcf_ref_test.go)
// on every input — the same error string, or equal alignments.
func FuzzParseVCF(f *testing.F) {
	const hdr = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\ts2\n"
	f.Add(vcfSample)
	f.Add("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\nchr1\t1\t.\tA\tC\t.\t.\t.\tGT\t0|1\n")
	f.Add("##meta\nno header\n")
	f.Add("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\nchr1\tNaN\t.\tA\tC\t.\t.\t.\tGT\t0|1\n")
	f.Add(strings.ReplaceAll(vcfSample, "\n", "\r\n"))                                          // CRLF lines
	f.Add(hdr + "c\t5\t.\tA\tC\t.\t.\t.\tGT\t0\t1\nc\t6\t.\tA\tC\t.\t.\t.\tGT\t.\t1\n")         // haploid GT
	f.Add(hdr + "c\t5\t.\tA\tC\t.\t.\t.\tGT\t0||1\t0|1\n")                                      // empty allele
	f.Add(hdr + "c\t5\t.\tA\tC\t.\t.\t.\tDP:GT\t3:0|1\t7:1/.\n")                                // GT not first
	f.Add(hdr + "c\t5\t.\tA\tC\t.\t.\t.\tDP:GT\t3:0|1\t7\n")                                    // too few ':' parts
	f.Add(hdr + "c\t5\t.\tA\tC\t.\t.\t.\tGT\t0|1\t1|1\n#stray\n")                               // '#' line after the header
	f.Add(hdr + "c\t5\t.\tA\t.\t.\t.\t.\tGT\t0|1\t1|1\nc\t6\t.\tA\tC\t.\t.\t.\tGT\t0|1\t1|1\n") // ALT "."
	f.Add(hdr + "c\t5\t.\tA\tC\t.\t.\t.\tGT\t10|1\t1|1\n")                                      // multi-character allele
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ParseVCF(strings.NewReader(in))
		want, wantErr := refParseVCF(strings.NewReader(in))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, reference decoder says %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted VCF violates invariants: %v", err)
		}
		if msg := alignmentDiff(a, want); msg != "" {
			t.Fatalf("alignment differs from the reference decoder's: %s", msg)
		}
	})
}

// alignmentDiff describes the first difference between two alignments
// (positions and length compared bit for bit), or returns "".
func alignmentDiff(a, b *Alignment) string {
	if a.NumSNPs() != b.NumSNPs() || a.Samples() != b.Samples() {
		return fmt.Sprintf("shape %d×%d vs %d×%d", a.NumSNPs(), a.Samples(), b.NumSNPs(), b.Samples())
	}
	if math.Float64bits(a.Length) != math.Float64bits(b.Length) {
		return fmt.Sprintf("length %g vs %g", a.Length, b.Length)
	}
	if !slices.Equal(a.SampleNames, b.SampleNames) || (a.SampleNames == nil) != (b.SampleNames == nil) {
		return fmt.Sprintf("sample names %q vs %q", a.SampleNames, b.SampleNames)
	}
	for i := range a.Positions {
		if math.Float64bits(a.Positions[i]) != math.Float64bits(b.Positions[i]) {
			return fmt.Sprintf("position %d: %g vs %g", i, a.Positions[i], b.Positions[i])
		}
		if !slices.Equal(a.Matrix.Row(i).Words(), b.Matrix.Row(i).Words()) {
			return fmt.Sprintf("row %d: %v vs %v", i, a.Matrix.Row(i), b.Matrix.Row(i))
		}
		ma, mb := a.Matrix.Mask(i), b.Matrix.Mask(i)
		if (ma == nil) != (mb == nil) || (ma != nil && !slices.Equal(ma.Words(), mb.Words())) {
			return fmt.Sprintf("mask %d: %v vs %v", i, ma, mb)
		}
	}
	return ""
}

// FuzzReadBitmat: no input may panic the bitmat reader, and every
// accepted file must decode to a valid alignment. Each input is tried
// as given and again with its content hash re-stamped, so mutations
// reach the layout and padding checks behind the hash. OpenBitmat
// shares parseBitmat with ReadBitmat.
func FuzzReadBitmat(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, masks := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteBitmat(&buf, bitmatAlignment(f, rng, 12, 70, masks)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if masks {
			f.Add(buf.Bytes()[:buf.Len()-5]) // truncated
		}
	}
	f.Add(overflowBitmatHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= BitmatHeaderSize {
			b := append([]byte(nil), data...)
			sum := sha256.New()
			sum.Write(b[:bitmatHashOffset])
			sum.Write(b[BitmatHeaderSize:])
			copy(b[bitmatHashOffset:], sum.Sum(nil))
			inputs = append(inputs, b)
		}
		for _, in := range inputs {
			a, err := ReadBitmat(bytes.NewReader(in))
			if err != nil {
				continue
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("accepted bitmat violates invariants: %v", err)
			}
		}
	})
}

func FuzzParseFASTA(f *testing.F) {
	f.Add(">a\nACGT\n>b\nACGT\n")
	f.Add(">only\nNNNN\n")
	f.Add("no header\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ParseFASTA(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(recs) == 0 {
			t.Fatal("accepted FASTA with zero records")
		}
		a, _, err := FASTAToAlignment(recs)
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted FASTA violates invariants: %v", err)
		}
	})
}

func FuzzParseReport(f *testing.F) {
	f.Add("// header\n10\t1.5\t5\t15\n20\t-\t-\t-\n")
	f.Add("10\tx\n")
	f.Fuzz(func(t *testing.T, in string) {
		rows, err := ParseReport(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(rows) == 0 {
			t.Fatal("accepted empty report")
		}
	})
}
