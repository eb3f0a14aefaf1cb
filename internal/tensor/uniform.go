package tensor

import "math/rand"

// math/rand's seeded source is an additive lagged-Fibonacci generator
// over a 607-word register whose feed runs 334 words ahead of its tap, so
// its output stream obeys y_k = y_{k−607} + y_{k−273} mod 2⁶⁴.
const (
	uniformLag    = 607
	uniformTap    = 273
	uniformBlock  = 2048        // words generated per refill: the window is 21 KiB
	uniformMask   = 1<<63 - 1   // Int63 is the word's low 63 bits
	uniformRedraw = 1<<63 - 512 // a masked word from here on rounds to 1.0, and Float64 draws again
)

// Uniform is the program's one seeded draw of operand values: it yields
// the stream rand.New(src).Float64() yields, value for value, without an
// interface call per draw. It takes the source's first uniformLag words,
// continues the recurrence itself a block at a time, and converts as
// Float64 does, so a matrix or vector filled from it holds the bits
// Matrix.Randomize or RandomVector give it from a rand.Rand over the
// same source.
type Uniform struct {
	win  []uint64 // a block of words; its last uniformLag are the stream's latest
	pos  int      // the next unread word of win
	drop int      // the first word of win from pos on that Float64 draws again, or len(win)
}

// seek makes win[pos] the next unread word and finds the next word from
// there that Float64 draws again.
func (u *Uniform) seek(pos int) {
	u.pos, u.drop = pos, len(u.win)
	for i, y := range u.win[pos:] {
		if y&uniformMask >= uniformRedraw {
			u.drop = pos + i
			return
		}
	}
}

// refill generates the next uniformBlock words after the latest
// uniformLag ones, which it first moves to the front of the window, and
// makes the first of them the next unread word. A masked word y is drawn
// again exactly when y + 512 carries into bit 63, so one OR over those
// sums, taken as the words are made, spares the block seek's scan in all
// but about one block in 2⁴³.
func (u *Uniform) refill() {
	copy(u.win, u.win[uniformBlock:])
	next := u.win[uniformLag:]
	far, near := u.win[:len(next)], u.win[uniformLag-uniformTap:][:len(next)]
	var carry uint64
	for i := range next {
		y := far[i] + near[i] // from i = 273 on, near[i] is next[i−273]
		next[i] = y
		carry |= y&uniformMask + (1<<63 - uniformRedraw)
	}
	u.pos, u.drop = uniformLag, len(u.win)
	if carry >= 1<<63 {
		u.seek(uniformLag)
	}
}

// next returns the next min(n, words up to the next redrawn one) unread
// words that Float64 keeps, refilling an exhausted window and reading
// past redrawn words first, and marks them read.
func (u *Uniform) next(n int) []uint64 {
	for u.pos == u.drop {
		if u.pos == len(u.win) {
			u.refill()
		} else {
			u.seek(u.pos + 1)
		}
	}
	words := u.win[u.pos:u.drop]
	words = words[:min(len(words), n)]
	u.pos += len(words)
	return words
}

// Fill sets dst to the stream's next len(dst) values, each rounded to
// Value as Matrix.Randomize rounds them.
func (u *Uniform) Fill(dst []Value) {
	for len(dst) > 0 {
		words := u.next(len(dst))
		for i, y := range words {
			dst[i] = Value(float64(int64(y&uniformMask)) / (1 << 63))
		}
		dst = dst[len(words):]
	}
}

// Skip steps over the stream's next n values without converting them.
func (u *Uniform) Skip(n int) {
	for n > 0 {
		n -= len(u.next(n))
	}
}

// NewUniform continues src's stream, whose words must obey the
// recurrence from the next one on, as those of a seeded source
// (rand.NewSource(seed).(rand.Source64)) do; src is not read again.
// It is declared last because the linker lays functions out in
// declaration order, and this order starts refill and Fill, the loops
// every draw runs, on 64-byte boundaries in the benchmark binary.
func NewUniform(src rand.Source64) *Uniform {
	u := &Uniform{win: make([]uint64, uniformLag+uniformBlock)}
	for i := range u.win[uniformBlock:] {
		u.win[uniformBlock+i] = src.Uint64()
	}
	u.seek(uniformBlock)
	return u
}
