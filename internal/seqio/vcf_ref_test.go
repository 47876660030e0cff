package seqio

// The reference VCF decoder: the original strings.Split implementation,
// kept verbatim (identifiers renamed) as the oracle the differential
// FuzzParseVCF compares the byte-level decoder in vcf.go against —
// every accepted input must decode to the same alignment and every
// rejected input must fail with the same error string.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"omegago/internal/bitvec"
)

// refVCFRec is one decoded biallelic SNP record: its position and the
// per-haplotype allele states (0, 1, or -1 for missing).
type refVCFRec struct {
	pos     float64
	alleles []int8
}

// refVCFDecoder scans VCF records one at a time — the shared core of the
// whole-file refParseVCF and the chunked VCFSource. It performs the full
// per-record validation (header presence, single chromosome, GT field,
// consistent haplotype counts) so both consumers reject malformed input
// with identical errors.
type refVCFDecoder struct {
	sc         *bufio.Scanner
	haplos     int // fixed after the first record
	sampleCols []string
	hapNames   []string
	chrom      string
	sawHeader  bool
	bytesRead  int64 // input text bytes consumed, including skipped lines
}

// newRefVCFDecoder wraps a VCF text stream.
func newRefVCFDecoder(r io.Reader) *refVCFDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	return &refVCFDecoder{sc: sc}
}

// next decodes the next usable biallelic SNP record. ok=false with a
// nil error means clean EOF.
func (d *refVCFDecoder) next() (rec refVCFRec, ok bool, err error) {
	for d.sc.Scan() {
		line := d.sc.Text()
		d.bytesRead += int64(len(line)) + 1
		if line == "" || strings.HasPrefix(line, "##") {
			continue
		}
		if strings.HasPrefix(line, "#CHROM") {
			fields := strings.Split(line, "\t")
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
		fields := strings.Split(line, "\t")
		if len(fields) < 10 {
			return rec, false, fmt.Errorf("seqio: VCF record with %d fields, want ≥10", len(fields))
		}
		if d.chrom == "" {
			d.chrom = fields[0]
		} else if fields[0] != d.chrom {
			return rec, false, fmt.Errorf("seqio: multiple chromosomes in VCF (%q and %q); split the input", d.chrom, fields[0])
		}
		ref, alt := fields[3], fields[4]
		if len(ref) != 1 || len(alt) != 1 || alt == "." {
			continue // not a biallelic SNP
		}
		pos, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return rec, false, fmt.Errorf("seqio: bad VCF POS %q", fields[1])
		}
		fmtKeys := strings.Split(fields[8], ":")
		gtIdx := -1
		for i, k := range fmtKeys {
			if k == "GT" {
				gtIdx = i
				break
			}
		}
		if gtIdx == -1 {
			return rec, false, fmt.Errorf("seqio: VCF record at %s:%s lacks GT", fields[0], fields[1])
		}
		var alleles []int8
		firstRecord := d.haplos == 0
		for si, sample := range fields[9:] {
			parts := strings.Split(sample, ":")
			if gtIdx >= len(parts) {
				return rec, false, fmt.Errorf("seqio: sample field %q missing GT", sample)
			}
			gt := strings.ReplaceAll(parts[gtIdx], "|", "/")
			gtAlleles := strings.Split(gt, "/")
			if firstRecord && si < len(d.sampleCols) {
				for k := range gtAlleles {
					name := d.sampleCols[si]
					if len(gtAlleles) > 1 {
						name = fmt.Sprintf("%s.%d", name, k+1)
					}
					d.hapNames = append(d.hapNames, name)
				}
			}
			for _, al := range gtAlleles {
				switch al {
				case "0":
					alleles = append(alleles, 0)
				case "1":
					alleles = append(alleles, 1)
				case ".":
					alleles = append(alleles, -1)
				default:
					return rec, false, fmt.Errorf("seqio: unsupported allele %q at %s:%s", al, fields[0], fields[1])
				}
			}
		}
		if d.haplos == 0 {
			d.haplos = len(alleles)
		} else if len(alleles) != d.haplos {
			return rec, false, fmt.Errorf("seqio: inconsistent haplotype count %d (want %d) at %s:%s",
				len(alleles), d.haplos, fields[0], fields[1])
		}
		return refVCFRec{pos: pos, alleles: alleles}, true, nil
	}
	if err := d.sc.Err(); err != nil {
		return rec, false, fmt.Errorf("seqio: reading VCF: %w", err)
	}
	return rec, false, nil
}

// refVCFAlleleRow packs one record's allele states into a SNP bit row and
// an optional validity mask (nil when no allele is missing) — the
// allele-compression step of Fig. 3's preprocessing stage.
func refVCFAlleleRow(alleles []int8, haplos int) (row, mask *bitvec.Vector) {
	row = bitvec.New(haplos)
	for h, al := range alleles {
		switch al {
		case 1:
			row.Set(h, true)
		case -1:
			if mask == nil {
				mask = bitvec.New(haplos)
				for k := 0; k < h; k++ {
					mask.Set(k, true)
				}
			}
		}
		if mask != nil && al != -1 {
			mask.Set(h, true)
		}
	}
	return row, mask
}

// refParseVCF reads a minimal subset of VCF 4.x sufficient for sweep scans:
// biallelic SNP records with GT genotype fields. Diploid genotypes are
// split into two haplotypes per sample; '.' alleles become missing data.
// Records that are not biallelic SNPs (indels, multi-ALT) are skipped.
// All records must belong to a single chromosome (the first one seen).
func refParseVCF(r io.Reader) (*Alignment, error) {
	dec := newRefVCFDecoder(r)
	var records []refVCFRec
	var positions []float64
	for {
		rec, ok, err := dec.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		records = append(records, rec)
		positions = append(positions, rec.pos)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("seqio: no usable biallelic SNP records in VCF")
	}

	m := bitvec.NewMatrix(dec.haplos)
	length := 0.0
	for _, r := range records {
		row, mask := refVCFAlleleRow(r.alleles, dec.haplos)
		m.AppendRow(row, mask)
		if r.pos > length {
			length = r.pos
		}
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
