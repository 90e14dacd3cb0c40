package sim

import "math/rand"

// source is math/rand's rngSource (an additive lagged-Fibonacci generator
// over a 607-word register) with lazy seeding. Its output equals
// rand.NewSource(seed)'s for every seed and every draw count.
//
// math/rand seeds register word i as
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i],  x[k] = x0·48271^k mod (2³¹−1)
//
// which costs 1 841 LCG steps and a 4.9 KB register per stream. Any one word
// can instead be computed on its own from a power table (seedWord). Draw k
// reads only words 334−k and 607−k and writes word 334−k, so the first
// lazyDraws draws compute their two words on the spot and keep what they
// write in an inline buffer. Draw lazyDraws+1 promotes the stream: it builds
// the full register exactly as math/rand would, replays the buffered writes,
// and continues as the plain generator. Every serving-path stream draws at
// most five values and never promotes.
type source struct {
	x0        uint64           // the LCG's starting state, seed normalised as math/rand does
	n         int              // draws taken while lazy
	fed       [lazyDraws]int64 // fed[k] is the word draw k+1 wrote at rngFeed-1-k
	tap, feed int              // register indices once promoted
	vec       *[rngLen]int64   // the full register, nil while lazy
}

const (
	rngLen    = 607
	rngTap    = 273
	rngFeed   = rngLen - rngTap // the feed index before the first draw
	int32max  = 1<<31 - 1
	seedSkip  = 20 // LCG steps math/rand discards before word 0
	lazyDraws = 16
)

var (
	// lcgPow[k] = 48271^k mod (2³¹−1), so x[k] = x0·lcgPow[k] mod (2³¹−1):
	// math/rand's seedrand is exactly this LCG (Schrage's method).
	lcgPow = lcgPowers()
	// cooked is math/rand's unexported rngCooked table (see recoverCooked).
	cooked = recoverCooked()
)

func lcgPowers() *[seedSkip + 1 + 3*rngLen]uint64 {
	p := new([seedSkip + 1 + 3*rngLen]uint64)
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 48271 % int32max
	}
	return p
}

// seedWord is register word i for LCG start x0, before the rngCooked mix.
func seedWord(x0 uint64, i int) int64 {
	p := lcgPow[seedSkip+1+3*i : seedSkip+4+3*i]
	return int64(x0*p[0]%int32max)<<40 ^ int64(x0*p[1]%int32max)<<20 ^ int64(x0*p[2]%int32max)
}

// recoverCooked inverts the first rngLen outputs of rand.NewSource(1) back
// to its seeded register, then unmixes the LCG words. Draw k adds register
// words feed = (334−k) mod 607 and tap = 607−k and stores the sum at feed.
// For draws 274–607 the tap word is draw k−273's output, so the feed word
// (words 0–60 and 334–606) is out[k] − out[k−273]. Draws 1–273 read two
// untouched words, and word 607−k is known by then. math/rand's v1 stream is
// frozen under the Go 1 compatibility promise, so the table cannot drift.
func recoverCooked() *[rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64 // out[k] is draw k, counted from 1
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(rngFeed-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngFeed-k] = out[k] - v[rngLen-k]
	}
	c := new([rngLen]int64)
	for i := range c {
		c[i] = v[i] ^ seedWord(1, i)
	}
	return c
}

// word is the seeded value of register word i.
func (s *source) word(i int) int64 { return seedWord(s.x0, i) ^ cooked[i] }

// Seed implements rand.Source with math/rand's seed normalisation.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = source{x0: uint64(seed)}
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if s.vec == nil {
		if s.n < lazyDraws {
			s.n++
			x := s.word(rngFeed-s.n) + s.word(rngLen-s.n)
			s.fed[s.n-1] = x
			return uint64(x)
		}
		s.promote()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// promote seeds the full register as math/rand does, replays the lazy draws'
// writes, and leaves tap and feed where lazyDraws draws would have.
func (s *source) promote() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k, x := range s.fed {
		s.vec[rngFeed-1-k] = x
	}
	s.tap, s.feed = rngLen-lazyDraws, rngFeed-lazyDraws
}
