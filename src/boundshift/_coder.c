/* The location-map arithmetic coder of codec.py, as a compiled kernel.
 *
 * The loops of codec._encode_py and codec._decode_py, with the same results
 * bit for bit: the Witten-Neal-Cleary 32-bit integer coder with pending-bit
 * carries and an adaptive order-0 model (counts start at 1, grow by 32, and
 * are all halved, floor 1, when the updated count reaches 2**16). Every count
 * stays below 2**16 and the alphabet has at most 256 symbols, so a total is
 * below 2**24, and a span is at most 2**32: every product of the two is below
 * 2**56, which uint64_t holds. codec.py loads this file through ctypes; its
 * Python loops are the fallback and the reference the tests compare against.
 *
 * One symbol dominates a real map: the clear symbol 2t, the alphabet's last,
 * in a preprocessing map, and 0 in a binary boundary map. The model keeps
 * total == sum(freq), which gives exact shortcuts:
 * - encoding the last symbol: cum + freq[s] == total, so the new high is
 *   low + span * total / total - 1 == high, unchanged, and cum is
 *   total - freq[s] without the sum; only low's quotient is left;
 * - encoding symbol 0: cum == 0, so low is unchanged; only high's quotient
 *   is left;
 * - decoding, with x = (code - low + 1) * total - 1 and value = x / span,
 *   value >= c holds exactly when x >= c * span, for integers x >= 0,
 *   span >= 1 and c: x / span rounds down. So x >= (total - freq[last]) * span
 *   picks the last symbol by one multiplication in place of the value
 *   division, and only low's quotient is left. Any other symbol is found by
 *   the search from 0: only preprocessing maps are decoded, where symbol 0
 *   (a 0 pixel stepped down by t, or a 255 pixel up) is rare, so a
 *   symbol-0 test would cost the other symbols more than it saves.
 *
 * Each shortcut's one quotient, floor(span * c / total) with c < total, is
 * scaled(): it takes r = floor(2**32 * c / total), q = (span * r) >> 32, and
 * adds 1 to q where (q + 1) * total is still at most span * c. c and total
 * come from the model alone, never from low or high, so the division runs
 * ahead while the previous symbol renormalizes, and the interval waits only
 * for a multiply, a shift and a multiply-compare (a division by a value
 * known ahead of time made a multiplication, as in Granlund and Montgomery,
 * PLDI 1994). It is exact in uint64_t. Write s = span, t = total and
 * Q = floor(s * c / t), with 1 <= s <= 2**32 and c < t < 2**24. Then
 * r < 2**32, so s * r < 2**64; 2**32 * c < 2**56; and
 * (q + 1) * t <= s * c + t < 2**57. Multiplying
 * 2**32 * c / t - 1 < r <= 2**32 * c / t by s / 2**32, which is at most 1,
 * gives s * c / t - 1 < s * r / 2**32 <= s * c / t, so
 * Q - 1 < s * r / 2**32 < Q + 1, and q, its floor, is Q - 1 or Q. It is
 * Q - 1 exactly when (q + 1) * t = Q * t <= s * c, and Q when
 * (q + 1) * t = (Q + 1) * t > s * c: the compare adds the missing 1. The
 * general path keeps its plain divisions. There the decoder's cum comes
 * from the search on value, which waits on the interval, and routing the
 * general path through scaled() made decoding uniform alphabet-255 and
 * alphabet-256 maps slower, not faster.
 *
 * A decode fails only when the stream runs out, since for any input
 * low <= code <= high before each symbol, from the start (low 0, high 2**32 - 1,
 * code 32 bits); then 1 <= code - low + 1 <= span puts value in [0, total - 1],
 * cum <= value < cum + freq[s] puts code in the symbol's sub-interval, and the
 * renormalization steps map all three alike (drop the shared top bit, or
 * subtract 2**30, then double), code's new bit between low's 0 and high's 1.
 *
 * bs_pass_step is the pick-only sweep's step per even pass, the loops of
 * preprocess._ForwardCache.odd_steps and embedder._pass_rooms in one, with
 * their outputs exactly (pipeline._SweepState.measure_pass reads them; the
 * NumPy versions are the fallback and the reference the tests compare
 * against). It takes the even pass (int16, h x w), its prediction, the
 * sweep's table of 16 S + n per cell (S the sum of a cell's n in-grid
 * neighbours in the clamped cover, whose odd cells are every pass's), the
 * shift t and the thresholds as first[v], for v in 0..127, the first index
 * of a threshold above v (size if none). One raster scan clamps each cell
 * into [t, 255 - t] and marks those it changed; counts the even cells that
 * are carriers (_carries' rule: n(2E - 1) <= 2S < n(2E + 3) for a clamped
 * value E) for the base room; and lists each odd cell that some t_odd
 * moves: predicted at p, from index first[min(p, 255 - p)] on (index 0 for
 * a negative min: every threshold is at least 1), by +t if p <= 127 and -t
 * otherwise, with its flat position, that index, the change of its clamped
 * value (its step) and of whether it is clamped (its flip). The cells of a
 * nonzero step are then bucketed by index, raster order kept, and applied
 * index by index to a running sum per even cell next to them: each change
 * adds the cell's carrier test after it less the one before it, so rooms[j]
 * is the room once every change of index <= j is in.
 *
 * Every sum fits in int32_t. The even pass holds values in [-127, 382] and
 * its prediction too, so min(p, 255 - p) lies in [-127, 127], which first
 * covers once a negative one reads first[0]. With t >= 1 a clamped value
 * lies in [1, 254], so a table entry 16 S + n is at most
 * 16 * 4 * 254 + 4 = 16,260. A step is at most t <= 127 in size, since
 * clamping does not widen a move of t, so a running sum, over at most 4
 * neighbours, is at most 4 * 127 = 508 in size, and the packed sum
 * 16 (S + sum) + n stays in [0, 16,260], as it is the table entry of a grid
 * of clamped values. The carrier test's products are at most
 * 4 * (2 * 254 + 3) = 2,044.
 */
#include <stdint.h>
#include <stdlib.h>

#define TOP_BIT 0x80000000u
#define SECOND_BIT 0x40000000u
#define HALF_MASK 0x7fffffffu
#define INCREMENT 32
#define CAP 65536

enum { BS_OK = 0, BS_EXHAUSTED = 2, BS_NO_MEMORY = 3 };

/* floor(span * c / total), for span <= 2**32 and c < total < 2**24; the
 * header proves it exact. */
static inline uint64_t scaled(uint64_t span, uint64_t c, uint64_t total) {
    uint64_t q = (span * ((c << 32) / total)) >> 32;
    return q + ((q + 1) * total <= span * c);
}

static void model_init(uint32_t *freq, uint64_t *total, int alphabet) {
    for (int i = 0; i < alphabet; i++)
        freq[i] = 1;
    *total = (uint64_t)alphabet;
}

static void model_update(uint32_t *freq, uint64_t *total, int alphabet, int s) {
    freq[s] += INCREMENT;
    *total += INCREMENT;
    if (freq[s] >= CAP) {
        *total = 0;
        for (int i = 0; i < alphabet; i++) {
            freq[i] = (freq[i] + 1) >> 1;
            *total += freq[i];
        }
    }
}

/* Code n symbols, each below alphabet, into out as MSB-first bits and
 * return the number of bits written. out must hold 4*n + 1 zeroed bytes.
 * That bound: a span (high - low + 1) above 2**30 narrowed by a count of at
 * least 1 out of a total below 2**24 is still at least 1, and each
 * renormalization step doubles it. A step is taken only while the span is
 * at most 2**31, so a symbol takes at most 32 steps, and each step writes
 * one bit now or parks one pending bit that is written later. With the
 * final 1 that makes at most 32*n + 1 bits. */
uint64_t bs_encode(const uint8_t *symbols, uint64_t n, int alphabet, uint8_t *out) {
    uint32_t freq[256];
    uint64_t total, nbits = 0, pending = 0;
    uint32_t low = 0, high = 0xffffffffu;
    int last = alphabet - 1;
    model_init(freq, &total, alphabet);
#define PUT(b) do { if (b) out[nbits >> 3] |= (uint8_t)(0x80u >> (nbits & 7)); nbits++; } while (0)
    for (uint64_t i = 0; i < n; i++) {
        int s = symbols[i];
        uint64_t span = (uint64_t)high - low + 1;
        if (s == last) {
            low = (uint32_t)(low + scaled(span, total - freq[s], total));
        } else if (s == 0) {
            high = (uint32_t)(low + scaled(span, freq[0], total) - 1);
        } else {
            uint64_t cum = 0;
            for (int j = 0; j < s; j++)
                cum += freq[j];
            high = (uint32_t)(low + span * (cum + freq[s]) / total - 1);
            low = (uint32_t)(low + span * cum / total);
        }
        for (;;) {
            if (((low ^ high) & TOP_BIT) == 0) {
                uint32_t bit = low >> 31;
                PUT(bit);
                for (; pending; pending--)
                    PUT(bit ^ 1);
                low <<= 1;
                high = (high << 1) | 1;
            } else if ((low & ~high & SECOND_BIT) != 0) {
                pending++;
                low = (low << 1) & HALF_MASK;
                high = ((high << 1) & HALF_MASK) | TOP_BIT | 1;
            } else {
                break;
            }
        }
        model_update(freq, &total, alphabet, s);
    }
    /* A final 1 plus the parked bits, zeros after a 1, already zeroed. */
    PUT(1);
#undef PUT
    return nbits + pending;
}

/* Decode count symbols from the first bit_length bits of data, followed by
 * a window of 32 zero bits. On BS_OK, *out holds *n_out == count symbols,
 * to be released with bs_free. The output grows by doubling as symbols are
 * decoded, so a short stream ends the decode whatever count it declares; on
 * any error nothing is left allocated. */
int bs_decode(const uint8_t *data, uint64_t bit_length, uint64_t count, int alphabet,
              uint8_t **out, uint64_t *n_out) {
    uint32_t freq[256];
    uint64_t total, pos, end = bit_length + 32, cap = 0, n = 0;
    uint32_t low = 0, high = 0xffffffffu, code = 0;
    uint8_t *buf = NULL;
    int status = BS_OK, last = alphabet - 1;
    model_init(freq, &total, alphabet);
#define BIT(p) ((p) < bit_length ? (data[(p) >> 3] >> (7 - ((p) & 7))) & 1u : 0u)
    for (pos = 0; pos < 32; pos++)
        code = (code << 1) | BIT(pos);
    for (; n < count; n++) {
        uint64_t span = (uint64_t)high - low + 1;
        uint64_t x = ((uint64_t)code - low + 1) * total - 1;
        int s;
        if (x >= (total - freq[last]) * span) {
            s = last;
            low = (uint32_t)(low + scaled(span, total - freq[last], total));
        } else {
            uint64_t value = x / span, cum = 0;
            s = 0;
            while (cum + freq[s] <= value)
                cum += freq[s++];
            high = (uint32_t)(low + span * (cum + freq[s]) / total - 1);
            low = (uint32_t)(low + span * cum / total);
        }
        for (;;) {
            if (((low ^ high) & TOP_BIT) == 0) {
                code <<= 1;
                low <<= 1;
                high = (high << 1) | 1;
            } else if ((low & ~high & SECOND_BIT) != 0) {
                code = (code & TOP_BIT) | ((code << 1) & HALF_MASK);
                low = (low << 1) & HALF_MASK;
                high = ((high << 1) & HALF_MASK) | TOP_BIT | 1;
            } else {
                break;
            }
            if (pos == end) {
                status = BS_EXHAUSTED;
                break;
            }
            code |= BIT(pos);
            pos++;
        }
        if (status != BS_OK)
            break;
        if (n == cap) {
            uint64_t want = cap ? 2 * cap : 4096;
            if (want > count)
                want = count;
            uint8_t *next = realloc(buf, want);
            if (next == NULL) {
                status = BS_NO_MEMORY;
                break;
            }
            buf = next;
            cap = want;
        }
        buf[n] = (uint8_t)s;
        model_update(freq, &total, alphabet, s);
    }
#undef BIT
    if (status != BS_OK) {
        free(buf);
        buf = NULL;
        n = 0;
    }
    *out = buf;
    *n_out = n;
    return status;
}

void bs_free(uint8_t *buf) {
    free(buf);
}

/* Whether an even cell of clamped value value is a carrier, its n in-grid
 * neighbours summing to S (packed: 16 S + n): embedder._carries. */
static inline int32_t carries(int32_t packed, int32_t value) {
    int32_t n = packed & 15, twice = 2 * (packed >> 4);
    return n * (2 * value - 1) <= twice && twice < n * (2 * value + 3);
}

static inline int32_t clamp(int32_t v, int32_t low, int32_t high) {
    return v < low ? low : v > high ? high : v;
}

/* Add step to the running sum of the even cell at e, and return how that
 * changes whether it is a carrier. */
static inline int32_t carrier_change(const int16_t *grid, const int16_t *table, int32_t *run,
                                     uint64_t e, int32_t step, int32_t low, int32_t high) {
    int32_t value = clamp(grid[e], low, high);
    int32_t before = carries(table[e] + 16 * run[e], value);
    run[e] += step;
    return carries(table[e] + 16 * run[e], value) - before;
}

/* The step of one even pass of an h x w grid, n = h * w cells (the header
 * gives the contract). Writes marked[n], the listed odd cells' cells, index
 * and flip, *listed of them (at most n / 2), and rooms[size], for
 * 1 <= size <= 127.
 * *work is the scratch of the grid's passes: NULL before the first, which
 * allocates it for n cells and returns BS_NO_MEMORY where it cannot, and
 * kept for the later passes of grids of n cells, to be released with
 * bs_free. Each pass leaves its running sums zeroed. */
int bs_pass_step(const int16_t *grid, const int16_t *pred, const int16_t *table,
                 uint64_t h, uint64_t w, int32_t shift, const uint8_t *first, int32_t size,
                 uint8_t *marked, int64_t *cells, int64_t *index, int8_t *flip,
                 int64_t *rooms, uint64_t *listed, void **work) {
    uint64_t n = h * w, half = n / 2 + 1, m = 0, at = 0;
    uint64_t start[128] = {0};
    int32_t low = shift, high = 255 - shift;
    int64_t room = 0;
    if (*work == NULL) {
        /* order, then the running sums, then the steps */
        *work = calloc(1, half * sizeof(uint64_t) + n * sizeof(int32_t) + half * sizeof(int16_t));
        if (*work == NULL)
            return BS_NO_MEMORY;
    }
    uint64_t *order = *work;
    int32_t *run = (int32_t *)(order + half);
    int16_t *step = (int16_t *)(run + n);
    for (uint64_t r = 0; r < h; r++) {
        for (uint64_t c = 0; c < w; c++) {
            uint64_t i = r * w + c;
            int32_t v = grid[i], v_clamped = clamp(v, low, high);
            marked[i] = v_clamped != v;
            if (((r + c) & 1) == 0) {
                room += carries(table[i], v_clamped);
                continue;
            }
            int32_t p = pred[i], near = p < 255 - p ? p : 255 - p;
            int32_t j = first[near < 0 ? 0 : near];
            if (j >= size)
                continue;
            int32_t moved = v + (p <= 127 ? shift : -shift);
            int32_t moved_clamped = clamp(moved, low, high);
            cells[m] = (int64_t)i;
            index[m] = j;
            step[m] = (int16_t)(moved_clamped - v_clamped);
            flip[m] = (int8_t)((moved_clamped != moved) - (v_clamped != v));
            /* counted one index up, so the prefix sums below start each bucket */
            start[j + 1] += step[m] != 0;
            m++;
        }
    }
    *listed = m;
    for (int32_t j = 0; j < size; j++)
        start[j + 1] += start[j];
    /* each bucket filled in raster order; start[j] then ends bucket j */
    for (uint64_t k = 0; k < m; k++)
        if (step[k] != 0)
            order[start[index[k]]++] = k;
    for (int32_t j = 0; j < size; j++) {
        for (; at < start[j]; at++) {
            uint64_t k = order[at], e = (uint64_t)cells[k], r = e / w, c = e % w;
            int32_t d = step[k];
            if (r > 0)
                room += carrier_change(grid, table, run, e - w, d, low, high);
            if (r < h - 1)
                room += carrier_change(grid, table, run, e + w, d, low, high);
            if (c > 0)
                room += carrier_change(grid, table, run, e - 1, d, low, high);
            if (c < w - 1)
                room += carrier_change(grid, table, run, e + 1, d, low, high);
        }
        rooms[j] = room;
    }
    /* start[size - 1] ends the last bucket */
    for (at = 0; at < start[size - 1]; at++) {
        uint64_t e = (uint64_t)cells[order[at]], r = e / w, c = e % w;
        if (r > 0)
            run[e - w] = 0;
        if (r < h - 1)
            run[e + w] = 0;
        if (c > 0)
            run[e - 1] = 0;
        if (c < w - 1)
            run[e + 1] = 0;
    }
    return BS_OK;
}
