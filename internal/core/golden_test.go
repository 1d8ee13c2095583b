package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/doppler"
	"repro/internal/fading"
	"repro/internal/randx"
)

// goldenConfig is one real-time configuration of the byte-golden matrix.
type goldenConfig struct {
	name     string
	n, m     int
	coloring string // "real", "complex", "partial" or "eq22" (eigen coloring)
	segments []DopplerSegment
	fading   string
	params   *chanspec.FadingParams
}

// goldenBlocks are the block indices hashed for every configuration; the
// gaps cross the segment boundaries of the nonstationary configurations.
var goldenBlocks = []uint64{0, 1, 2, 5}

var goldenConfigs = []goldenConfig{
	{name: "n1-m512-real", n: 1, m: 512, coloring: "real"},
	{name: "n3-m1024-eq22", n: 3, m: 1024, coloring: "eq22"},
	{name: "n3-m512-complex", n: 3, m: 512, coloring: "complex"},
	{name: "n16-m4096-real", n: 16, m: 4096, coloring: "real"},
	{name: "n16-m1024-partial", n: 16, m: 1024, coloring: "partial"},
	{name: "n17-m4096-partial", n: 17, m: 4096, coloring: "partial"},
	{name: "n17-m512-complex", n: 17, m: 512, coloring: "complex"},
	{name: "n16-m1000-complex", n: 16, m: 1000, coloring: "complex"},
	{name: "n3-m1000-real", n: 3, m: 1000, coloring: "real"},
	{name: "n1-m1000-partial", n: 1, m: 1000, coloring: "partial"},
	{name: "n3-m512-segments", n: 3, m: 512, coloring: "eq22",
		segments: []DopplerSegment{{Blocks: 1, NormalizedDoppler: 0.05}, {Blocks: 2, NormalizedDoppler: 0.2}, {Blocks: 1, NormalizedDoppler: 0.01}}},
	{name: "n17-m1000-segments", n: 17, m: 1000, coloring: "real",
		segments: []DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.1}, {Blocks: 2, NormalizedDoppler: 0.03}}},
	{name: "n3-m1024-rician", n: 3, m: 1024, coloring: "eq22",
		fading: chanspec.FadingRician, params: &chanspec.FadingParams{KFactor: 4, LOSPhaseRad: 0.5}},
	{name: "n16-m512-nakagami", n: 16, m: 512, coloring: "real",
		fading: chanspec.FadingNakagamiM, params: &chanspec.FadingParams{M: 2.5}},
	{name: "n17-m1024-suzuki", n: 17, m: 1024, coloring: "partial",
		fading: chanspec.FadingSuzuki, params: &chanspec.FadingParams{ShadowSigmaDB: 6, ShadowCoherence: 64}},
	{name: "n3-m1000-suzuki", n: 3, m: 1000, coloring: "complex",
		fading: chanspec.FadingSuzuki, params: &chanspec.FadingParams{ShadowSigmaDB: 4, ShadowCoherence: 32}},
}

// goldenHashes holds the SHA-256 of each hashed block's bytes (Gaussian
// samples as little-endian real/imaginary float64 pairs, row by row, then
// the envelopes), indexed like goldenBlocks. They pin the exact output bytes
// of the real-time engine: a kernel rewrite must reproduce them unchanged,
// and an intended byte change needs a versioned stream change instead.
var goldenHashes = map[string][]string{
	"n1-m512-real": {
		"b89b04fbb204258f098477687954871123162533aec080bc4842edf2f337d3b6",
		"c953f96f14d42b7e5ac68a9c04580c43c443317c0a782f0c5c37d139addc9c18",
		"646a8a4ce15eaf27c1b4f7c99f94d6727aa73200edad0ee456051fbd0cf26dd5",
		"ceeb02f414b16e5419be7a6f23e63a2c61eefe50d2f78831857dbd22cf6a274a",
	},
	"n3-m1024-eq22": {
		"6b2098ecd9e3330c993df95f13860c677856dde0e707a116591b4697c79560aa",
		"4c5b7f090eba7b827147ac76d355443c6a6143a7025cb542d58e6d607ecbb96b",
		"82c7bfebb84a53e3243a72be9d43a16cf4eb38c4feeda98d07e07bcfe92869e6",
		"4afd3814be70f6180c2976d2cd59e7eb61987a961cb6a08de01144b6a02600cf",
	},
	"n3-m512-complex": {
		"fdf977f7056c3b9feec206c19a96ae6924cfe1f52b8a84134b172e8ad743a8d5",
		"b4666ac7e9d2e5f92f49f4b307410590a14ebe22bd0d6ea6d071eb381f8d6477",
		"f121efb10a1bd6d0cc4ed0787e248bc2c2aebc7ec66a9526f0dbbfefb15fa8fa",
		"a9b62f8d664c848055067009246a237af77eb960d0480f22672a1fb5b988d131",
	},
	"n16-m4096-real": {
		"dcb02010b5617db317cf91b8961801f1a533d3a485304b9b6cda85f3ed9b64f4",
		"8bb5e3557fef5a9f1e9eae9cace96a06e615275856f6658433e10a374c419c6d",
		"0756be1f52cabbf8b54c7d46beb5c5c480f33d26e883c99c9b02ffeae2d07779",
		"e532c791a1779271a02173dc1f871e5c6b80625ac802aa21f41a87427de60926",
	},
	"n16-m1024-partial": {
		"de43e25e529ea4d2a5e80e012c1fec740f57ec5068f6f39b4bf76b1afad7afa8",
		"30441b1089032efe900e2b19bfdd247bc193dff352e8124ec4c4bf6e8f33c099",
		"ec0328c899cd1c86f7caba9b29321aeb2f52681fb7abde654fb87c3f030c75bc",
		"03c4ab90fea6f1bf2e43e13bdaa4ea334f7f8bc0309854cc151ee524623e0a40",
	},
	"n17-m4096-partial": {
		"1eccdf62a66a902c2813cb78f2a61f40a018c4209e84eec38870a85a59cebac6",
		"9c4ea290a82924dc364a90cb5168e5ad68aa2caedebd0394b0dc23c999e66455",
		"f2b4174f616c8328cae47acb25b173f2638d491f8b9bbc0374030f6f0584f3a4",
		"9ff237eafbf26ac6256af4a8bae0c09513a5b7a3b15268ef149e6d39d1aad4a0",
	},
	"n17-m512-complex": {
		"8df22696c60c0df895c4e9c947ef4236c1b4c221f6e2bf82b644b206c0f57bd2",
		"c2a6dffc7c0c2e6d092bcd938331d70820b2b54fd200011ac566e71a1806d3b7",
		"83d8216dfaccd0a9eb6e80b0fb689888a12d6c23695e6d1c2782b731f8b8c49a",
		"a8b5528030d1ec8d96c9947c6c435952b1dfeeb4e69e60f8787a14979e9477b2",
	},
	"n16-m1000-complex": {
		"763785b305a6fdc67eb583ffd333ef7bb705e22b45226ea1de8fb0f1487ce5f0",
		"48ac2ab438f2f5a08658fd8ab30eb571ce7753b0b3fe959f17967f37328cd714",
		"718194aa350426c37edeac26c6911efc4c99c4ff44cc450f58cf72b4a7940129",
		"01151607d674975fa02de5a237afeb0cfee6503b57f6d33bc47527b2ff87ca20",
	},
	"n3-m1000-real": {
		"9c9c42fa3159d0e95edec1e907d1d27e7d3e325f1ca147a219219d8a1f0c5775",
		"22e6a6816a3dc16eff04582f21494a81c0bc106414d393000b03e0859b4cf6e1",
		"9f8cfcd676e90e793412f7d5028469495e895e2bd3fcfb2be83d1071770a88da",
		"6c3dfe588e28580edfa92e8d1586722bc3161d4ee4e40b7b6c885dfbb182e716",
	},
	"n1-m1000-partial": {
		"af871eb506232d798fd8c82d7ff80653a88aeac6ec5bd184172babdbdd108927",
		"7ee5e5e0726c804702e08376303e61be147b419d0bb570a235884694e0b32f50",
		"4c938057e325aa9ce41e27b7535fa09d09c355192c6481486385b79477fa16a7",
		"cbbb43b461bf6398407cf46bf9509ccf8e6070b3ea3d7aac80ddef045f0ab60f",
	},
	"n3-m512-segments": {
		"41053c5b6c4fb151e2d835f39ff183b5c412b4a81095ed39c58e6c0471781305",
		"1a991372c6de5d24c18e0e34b617c3cd862c051af58790507e415c5c987701df",
		"f3153eb79c432c1c7daed3bc3134d40886b2d8f88a744444ad65c2b827daa353",
		"9c7e63e6c0070cee27baee7db735399fd8a22a84f5ce44103c8525b43c7aac3f",
	},
	"n17-m1000-segments": {
		"5a84ade32c5b81422c77a36cfde57576d58c1743e7fee4bce5882df80513e913",
		"cf9798e4221d37c7360691dea274145c0899760bf9abb7052a7057d6f36c6f0c",
		"47eaa7a8756a0efc43dedeadf31a5973db7963616f63f5ee97ebb0a6b1d77792",
		"852ffe30641b1444bfb7f35e3f2056db38482b01047a6480f14f624a1b591b11",
	},
	"n3-m1024-rician": {
		"cb9ed13db750d7720a5849f7428c3c335bea48a5473d33bbcd87a6fa3d25d08e",
		"6d09248987435820e21bc5764db5e7c74d8009d0dce72985a0600d178fce241c",
		"a6086a7d21ef66741b3d404528154dc757b5ac1bf4b4c792880363cb045be31a",
		"d5dc9263c4fc6b1049ad3b024d54453374e0c1d9980f015986e7cb3dc0675160",
	},
	"n16-m512-nakagami": {
		"bd0d9addbe63b7f2e68552f4195579cbb8b75f4d574a744eb9daa16225e0d98a",
		"5d1ce7e918f651fb622af541a4ca39fe8d5fb108d1c3cdbdea8eeb0cd75aa05a",
		"924912feda8909823e016d1ee2fd89d5c0daa6ee1757f047b90439fd614f57b7",
		"0833e274109739b64617b0202e2ce504f61600c64406d4ea91109998b54304db",
	},
	"n17-m1024-suzuki": {
		"c96b28bb496497f04fd3a14a5763d518b380223a4109905036cf82147acf1fcc",
		"e06fff7604ad70ba37a3701060016d354e5db23a5910fab092b93e8210891ab4",
		"50f6cedc0472ce4412e79b42dfaf593df11e9a037df4ffe65ceff33c94f444b4",
		"cb5e6a100f72173793241c75efd5b1d8934e4ed1ffc7f5024d01049cfa586a71",
	},
	"n3-m1000-suzuki": {
		"db1fa8577a0d6a2055db58d8383e268eca1dc1aa3e9ab85859f5ffb056129fae",
		"7767e1edc15d334bb4bd63812b4392e46a04a1d9c2545c9bbde6baffdff49554",
		"578d9cee2d11a5b21c4d1125b76083265ec09581ba4dd728fdcf67a8db434094",
		"433a79a053dd2ec857a56c73694bcdd72fcc14e2baeee97c3312073d8839ba36",
	},
}

// goldenColoring returns a deterministic n×n coloring matrix of the given
// kind: "real" is lower-triangular with real entries (zeros above the
// diagonal), "complex" dense with every entry complex, "partial" a mix of
// real, complex and zero entries.
func goldenColoring(kind string, n int, seed int64) *cmplxmat.Matrix {
	rng := randx.New(seed)
	l := cmplxmat.New(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			re, im := rng.Normal(0, 1), rng.Normal(0, 1)
			switch kind {
			case "real":
				if k > i {
					continue
				}
				im = 0
			case "partial":
				switch (i + 2*k) % 3 {
				case 0:
					im = 0
				case 1:
					re, im = 0, 0
				}
			}
			l.Set(i, k, complex(re, im))
		}
	}
	return l
}

func newGoldenGenerator(t *testing.T, c goldenConfig) *RealTimeGenerator {
	t.Helper()
	cfg := RealTimeConfig{Filter: doppler.FilterSpec{M: c.m}, Seed: 20261017, DopplerSegments: c.segments}
	if len(c.segments) == 0 {
		cfg.Filter.NormalizedDoppler = 0.05
	}
	if c.coloring == "eq22" {
		cfg.Covariance = cmplxmat.MustFromRows([][]complex128{
			{1, 0.3782 + 0.4753i, 0.0878 + 0.2207i},
			{0.3782 - 0.4753i, 1, 0.3063 + 0.3849i},
			{0.0878 - 0.2207i, 0.3063 - 0.3849i, 1},
		})
	} else {
		l := goldenColoring(c.coloring, c.n, int64(c.n*100000+c.m))
		cfg.Coloring = l
		cfg.Covariance = cmplxmat.MustMul(l, cmplxmat.ConjTranspose(l))
	}
	if c.fading != "" {
		powers := make([]float64, c.n)
		for j := range powers {
			powers[j] = real(cfg.Covariance.At(j, j))
		}
		tr, err := fading.New(c.fading, c.params, powers, cfg.Seed)
		if err != nil {
			t.Fatalf("%s: fading.New: %v", c.name, err)
		}
		cfg.Transform = tr
	}
	gen, err := NewRealTimeGenerator(cfg)
	if err != nil {
		t.Fatalf("%s: NewRealTimeGenerator: %v", c.name, err)
	}
	return gen
}

// blockHash is the SHA-256 of a block's Gaussian and envelope bytes.
func blockHash(b *Block) string {
	h := sha256.New()
	var buf [16]byte
	for _, row := range b.Gaussian {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
			h.Write(buf[:])
		}
	}
	for _, row := range b.Envelopes {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
			h.Write(buf[:8])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRealTimeBytesGolden pins the output bytes of the real-time engine
// across IDFT lengths (power-of-two and Bluestein), envelope counts that do
// and do not fill the coloring kernel's row tiles, real, complex and partly
// complex coloring matrices, nonstationary Doppler and every fading
// transform. Each configuration runs through GenerateBlockAt and through
// GenerateBlocksInto at one and two workers; all three must reproduce the
// committed hashes.
//
// The hashes are amd64 bytes. The Go compiler never fuses a multiply and an
// add into one FMA on amd64, whatever GOAMD64 is, but it does on arm64 and
// other targets, which changes last bits well upstream of the kernels (the
// Gaussian draws, the Doppler filter, the eigen coloring).
func TestRealTimeBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are amd64 bytes; %s may fuse multiply-adds", runtime.GOARCH)
	}
	last := goldenBlocks[len(goldenBlocks)-1]
	for _, c := range goldenConfigs {
		want, ok := goldenHashes[c.name]
		got := make([]string, len(goldenBlocks))

		gen := newGoldenGenerator(t, c)
		s, err := gen.NewBlockScratch()
		if err != nil {
			t.Fatalf("%s: NewBlockScratch: %v", c.name, err)
		}
		b := NewBlock(c.n, c.m)
		for i, idx := range goldenBlocks {
			if err := gen.GenerateBlockAt(idx, b, s); err != nil {
				t.Fatalf("%s: GenerateBlockAt(%d): %v", c.name, idx, err)
			}
			got[i] = blockHash(b)
		}
		if !ok {
			t.Errorf("%s: no golden hashes; computed %#v", c.name, got)
			continue
		}
		for i, idx := range goldenBlocks {
			if got[i] != want[i] {
				t.Errorf("%s: GenerateBlockAt block %d hash %s, want %s", c.name, idx, got[i], want[i])
			}
		}

		for _, workers := range []int{1, 2} {
			gen := newGoldenGenerator(t, c)
			dst := make([]*Block, last+1)
			for i := range dst {
				dst[i] = NewBlock(c.n, c.m)
			}
			if err := gen.GenerateBlocksInto(dst, workers); err != nil {
				t.Fatalf("%s: GenerateBlocksInto(workers=%d): %v", c.name, workers, err)
			}
			for i, idx := range goldenBlocks {
				if h := blockHash(dst[idx]); h != want[i] {
					t.Errorf("%s: GenerateBlocksInto(workers=%d) block %d hash %s, want %s", c.name, workers, idx, h, want[i])
				}
			}
		}
	}
}

// TestGoldenColoringKinds guards the matrix above against drifting into a
// different ColorBlock kernel than its name says.
func TestGoldenColoringKinds(t *testing.T) {
	for _, kind := range []string{"real", "complex", "partial"} {
		l := goldenColoring(kind, 17, 1)
		var reals, cplx, zeros int
		for _, v := range l.Data() {
			switch {
			case v == 0:
				zeros++
			case imag(v) == 0:
				reals++
			default:
				cplx++
			}
		}
		desc := fmt.Sprintf("%s: %d real, %d complex, %d zero entries", kind, reals, cplx, zeros)
		switch kind {
		case "real":
			if cplx != 0 || zeros == 0 {
				t.Errorf("%s, want real entries and zeros only", desc)
			}
		case "complex":
			if reals != 0 || zeros != 0 {
				t.Errorf("%s, want complex entries only", desc)
			}
		case "partial":
			if reals == 0 || cplx == 0 || zeros == 0 {
				t.Errorf("%s, want all three kinds", desc)
			}
		}
	}
}
