package seqio

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omegago/internal/bitvec"
)

// vcfAllocFixture is a fixed VCF mixing every shape the decoder's hot
// path handles: phased and unphased diploid GTs, missing alleles, GT
// first and GT after another FORMAT key, skipped indel and ALT "."
// records, and 70 samples (140 haplotypes, so rows span three words).
func vcfAllocFixture(records int) string {
	const samples = 70
	var sb strings.Builder
	sb.WriteString("##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT")
	for s := 0; s < samples; s++ {
		fmt.Fprintf(&sb, "\ts%d", s)
	}
	sb.WriteByte('\n')
	alleles := "01.1001"
	for i := 0; i < records; i++ {
		switch i % 9 {
		case 4:
			fmt.Fprintf(&sb, "chr7\t%d\t.\tAT\tC\t.\t.\t.\tGT", 10*i+1)
		case 7:
			fmt.Fprintf(&sb, "chr7\t%d\t.\tA\t.\t.\t.\t.\tGT", 10*i+1)
		default:
			fmt.Fprintf(&sb, "chr7\t%d\t.\tA\tG\t.\tPASS\t.\t", 10*i+1)
			if i%2 == 0 {
				sb.WriteString("GT:DP")
			} else {
				sb.WriteString("DP:GT")
			}
		}
		for s := 0; s < samples; s++ {
			a, b := alleles[(i+s)%len(alleles)], alleles[(i*s+3)%len(alleles)]
			sep := "|/"[(i+s)%2]
			if i%2 == 0 {
				fmt.Fprintf(&sb, "\t%c%c%c:%d", a, sep, b, s)
			} else {
				fmt.Fprintf(&sb, "\t%d:%c%c%c", s, a, sep, b)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// After the first record fixes the haplotype count and names, decoding
// a record allocates nothing: no line copy, no per-sample substrings,
// no intermediate allele slice.
func TestVCFDecoderNextAllocFree(t *testing.T) {
	d := newVCFDecoder(strings.NewReader(vcfAllocFixture(400)))
	if _, ok, err := d.next(); !ok || err != nil {
		t.Fatalf("first record: ok=%v err=%v", ok, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := d.next(); !ok || err != nil {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("vcfDecoder.next allocates %.1f times per record, want 0", allocs)
	}
	if d.haplos != 140 {
		t.Errorf("haplos = %d, want 140", d.haplos)
	}
}

func TestParseVCFMatchesReferenceOnFixture(t *testing.T) {
	in := vcfAllocFixture(400)
	got, err := ParseVCF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want, err := refParseVCF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if msg := alignmentDiff(got, want); msg != "" {
		t.Fatal(msg)
	}
	if !got.Matrix.HasMissing() || got.SampleNames[1] != "s0.2" {
		t.Errorf("fixture lost its missing alleles or haplotype names (%v)", got.SampleNames[:2])
	}
}

// benchVCF renders a 20,000 SNP × 100 haplotype alignment of random
// alleles as VCF — the shape of perfbench's stream-vcf input.
func benchVCF(b *testing.B) []byte {
	const snps, samples = 20000, 100
	rng := rand.New(rand.NewSource(1))
	m := bitvec.NewMatrix(samples)
	pos := make([]float64, snps)
	for i := range pos {
		row := bitvec.New(samples)
		for s := 0; s < samples; s++ {
			row.Set(s, rng.Intn(2) == 1)
		}
		m.AppendRow(row, nil)
		pos[i] = float64(50*i + 1)
	}
	var buf bytes.Buffer
	if err := WriteVCF(&buf, "chr1", &Alignment{Positions: pos, Length: 50 * snps, Matrix: m}); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkParseVCF(b *testing.B) {
	in := benchVCF(b)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseVCF(bytes.NewReader(in)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVCFSource opens the file (metadata pass) and serves it as
// overlapping 1,000-SNP chunks (chunk pass); throughput is file bytes
// per op, so it covers both passes over the text.
func BenchmarkVCFSource(b *testing.B) {
	in := benchVCF(b)
	path := filepath.Join(b.TempDir(), "bench.vcf")
	if err := os.WriteFile(path, in, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := OpenVCFSource(path)
		if err != nil {
			b.Fatal(err)
		}
		n := src.Meta().NumSNPs
		for lo := 0; lo < n; lo += 900 {
			if _, _, err := src.ReadChunk(lo, min(lo+1000, n)); err != nil {
				b.Fatal(err)
			}
		}
		src.Close()
	}
}
