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
 *
 * bs_forward and bs_inverse are preprocess.forward and preprocess.inverse
 * past their checks, each in one call, with the results of the NumPy chain
 * (_apply_pass twice, then _clamp; _unclamp, then both passes undone),
 * which is the fallback and the reference the tests compare against.
 * - bs_forward takes an h x w uint8 cover, h, w >= 2, the shift t and the
 *   thresholds t_even and t_odd, each in [1, 127], and writes the shifted
 *   image, then its map symbols, h w bytes each. The even pass moves the
 *   even cells (row + column even) predicted below t_even by +t and those
 *   above 255 - t_even by -t; the odd pass moves the odd cells of the
 *   result under t_odd; the clamp takes each value v into [t, 255 - t]
 *   and writes the symbol 2t - |v - clamped v|.
 * - bs_inverse takes the shifted image, its symbols (the caller has
 *   checked the image in [t, 255 - t] and the symbols in [0, 2t]) and the
 *   same parameters, and writes the cover. It unclamps first: a cell of
 *   symbol s < 2t sat 2t - s below t or above 255 - t, and one on neither
 *   endpoint is BS_OFF_ENDPOINT, with the first such cell's flat position.
 *   Then it undoes the odd pass and the even pass, each moving the other
 *   way, and a value outside [0, 255] is BS_OUT_OF_RANGE.
 * A pass reads only the other parity, which it does not move, so its
 * predictions are those of the grid before it and after it alike, and it
 * runs from one int16 grid into the other (ping-pong) with no prediction
 * grid. It rounds no mean either. A cell's prediction is its n in-grid
 * neighbours' mean, rounded half away from zero. With S their sum and
 * S >= 0 that is floor((2S + n) / 2n), which is below T exactly when
 * 2S + n < 2nT, that is 2S < n(2T - 1), and above 255 - T exactly when
 * 2S + n >= 2n(256 - T), that is 2S >= n(511 - 2T). With S < 0 it is at
 * most 0: below T, as 2S < 0 < n(2T - 1) says, and not above 255 - T, as
 * 2S < 0 says. So each band test is one compare of the sum: inside the
 * ring, with n = 4, S < 4T - 2 and S >= 1022 - 4T.
 * Every value fits in int16. A pass moves a value by at most t <= 127, so
 * the forward grids lie in [-127, 382] and the inverse's in [-t, 255 + t]
 * after the unclamp and [-254, 509] after the odd pass is undone. So a
 * sum of 4 neighbours lies in [-1016, 2036], twice a sum of at most 3 in
 * [-1524, 3054], and n(511 - 2T) is at most 4 * 509 = 2036.
 *
 * bs_capacity, bs_embed and bs_extract are embedder.capacity, embed and
 * extract past their checks, one raster loop each over an h x w uint8
 * grid and its prediction (predict_grid's int16 output), with the results
 * of the NumPy bodies, which are the fallback and the reference the tests
 * compare against. predict_grid returns a view of its summed buffer whose
 * rows lie w + 1 cells apart, so each function takes the prediction's row
 * stride and reads cell (r, c) at pred[r * stride + c], c < w: the view is
 * read where it lies, not copied. The NumPy bodies lay the even cells'
 * errors e = v - p out row by row, each row's even cells in column order,
 * and pick carriers and codes in that order (a short row's padding of 2
 * is no even cell and carries nothing). The loops visit the even cells,
 * columns r & 1, r & 1 + 2, ... of row r, in the same order, so:
 * - bs_capacity counts the cells of e in {0, -1}, as capacity does;
 * - bs_embed gives the k-th such cell e + bit (2e + 1), bit the k-th
 *   payload bit or 0 past the payload, 0 to 1 and -1 to -2 for a 1, and
 *   moves every other error one step away from zero, (e >= 1) - (e <= -2),
 *   as embed's delta does; a carrier's step is 0 there and any other
 *   cell's bit weight is 0, so one table per error holds both cases;
 * - bs_extract reads the code c of each cell in [-2, 1] as the bit
 *   c >= 0 ? c : -(c + 1), and moves every code back by
 *   (c <= -2) - (c >= 1), as extract does.
 * Every value fits its type. A uint8 grid's prediction is a mean of values
 * in [0, 255], so it lies in [0, 255] and an error or code in
 * [-255, 255]: e + 255 indexes the 511-entry tables. bs_embed's grid lies
 * in [1, 254] (embed checks it) and moves by at most 1, so the marked
 * value lies in [0, 255]. In bs_extract a code >= 1 is a value of at least
 * p + 1 >= 1, and a code <= -2 one of at most p - 2 <= 253, so the
 * restored value lies in [0, 254]. bs_capacity's test
 * (uint16_t)(e + 1) <= 1 holds for e + 1 in {0, 1} only, as e + 1 lies in
 * [-254, 256] and a negative one wraps to 65,282 or more, and a block's
 * count is at most BLOCK. The bit index k counts the carriers (or codes in
 * the window) before the current even cell, so it is below the even
 * cells' count, (h w + 1) / 2, the size of bits: bs_embed reads bits[k],
 * bs_extract writes it, at every even cell, and moves k on only past a
 * carrier (a code in the window).
 * Why tables. k carries from cell to cell, so those two loops cannot be
 * vectorised; a lookup of the cell's move, and of whether it carries, by
 * its error keeps each cell to a few instructions with no branch: at
 * 512x512, on a 2-core Xeon virtual machine (cc -O2), the loops took about
 * 0.55 (bs_embed) and 0.75 (bs_extract) of the time of branch-free
 * compares that pick the same move.
 * Why the loops are blocked. GCC's -O2 vectoriser (its very-cheap cost
 * model) takes only a loop whose trip count it knows to be a multiple of
 * the vector width, so a plain loop over a row stays scalar. Each
 * cell-wise loop here takes BLOCK cells at a time through restrict
 * pointers, and the last few cells one at a time. A blocked row computes
 * the step of every cell of the block, both parities, and a mask of the
 * pass's parity keeps half of them, so every load is contiguous;
 * bs_capacity's count is blocked the same way. The
 * border ring and each interior row's first and last cells go one at a
 * time with their neighbours counted.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* The cells a blocked loop takes at a time: a constant trip count that
 * GCC's -O2 cost model vectorises (the header gives why). */
#define BLOCK 16

enum { BS_OFF_ENDPOINT = 4, BS_OUT_OF_RANGE = 5 };

/* The step of a pass of threshold threshold at a cell whose n in-grid
 * neighbours sum to total: 1 if predicted below threshold, -1 if above
 * 255 - threshold, else 0, with no rounded prediction (the header). */
static inline int32_t band(int32_t total, int32_t n, int32_t threshold) {
    return (2 * total < n * (2 * threshold - 1)) - (2 * total >= n * (511 - 2 * threshold));
}

/* Columns [from, to) of row r of a pass: each cell of the parity moved by
 * move times its step, the others copied. */
static void pass_cells(const int16_t *in, int16_t *out, uint64_t h, uint64_t w, uint64_t r,
                       uint64_t from, uint64_t to, uint64_t parity, int32_t threshold,
                       int32_t move) {
    for (uint64_t c = from; c < to; c++) {
        uint64_t i = r * w + c;
        int32_t total = 0, n = 0;
        out[i] = in[i];
        if (((r + c) & 1) != parity)
            continue;
        if (r > 0) {
            total += in[i - w];
            n++;
        }
        if (r < h - 1) {
            total += in[i + w];
            n++;
        }
        if (c > 0) {
            total += in[i - 1];
            n++;
        }
        if (c < w - 1) {
            total += in[i + 1];
            n++;
        }
        out[i] = (int16_t)(in[i] + band(total, n, threshold) * move);
    }
}

/* One pass over the cells of the parity of an h x w grid, in into out:
 * preprocess._apply_pass of threshold threshold with move = direction *
 * shift. It reads only the other parity, which it copies, so out never
 * aliases in. Off the border ring a cell has four neighbours and its step
 * compares the sum with 4T - 2 and 1022 - 4T (band with n = 4); there the
 * row is taken BLOCK cells at a time, each cell's step masked by its
 * parity, and the ring and the row's last cells one at a time. */
static void pass(const int16_t *restrict in, int16_t *restrict out, uint64_t h, uint64_t w,
                 uint64_t parity, int32_t threshold, int32_t move) {
    int16_t moves[BLOCK + 1];
    int16_t low = (int16_t)(4 * threshold - 2), high = (int16_t)(1022 - 4 * threshold);
    for (int j = 0; j <= BLOCK; j++)
        moves[j] = (int16_t)(j % 2 == 0 ? move : 0);
    for (uint64_t r = 0; r < h; r++) {
        uint64_t c = 1;
        if (r == 0 || r == h - 1) {
            pass_cells(in, out, h, w, r, 0, w, parity, threshold, move);
            continue;
        }
        pass_cells(in, out, h, w, r, 0, 1, parity, threshold, move);
        /* moves[j] of the block at column 1 is cell 1 + j's move, and
         * BLOCK is even, so the same for every block of the row */
        const int16_t *mask = moves + ((r + 1 + parity) & 1);
        for (; c + BLOCK < w; c += BLOCK) {
            const int16_t *mid = in + r * w + c, *up = mid - w, *down = mid + w;
            int16_t *dst = out + r * w + c;
            for (int j = 0; j < BLOCK; j++) {
                int16_t total = (int16_t)(up[j] + down[j] + mid[j - 1] + mid[j + 1]);
                dst[j] = (int16_t)(mid[j] + ((total < low) - (total >= high)) * mask[j]);
            }
        }
        pass_cells(in, out, h, w, r, c, w, parity, threshold, move);
    }
}

/* The cell-wise steps of bs_forward and bs_inverse over count cells from
 * position i, called with count = BLOCK, which vectorises, and once more
 * for the last cells. */
static inline void widen(const uint8_t *restrict from, int16_t *restrict to, uint64_t i,
                         uint64_t count) {
    for (uint64_t j = i; j < i + count; j++)
        to[j] = from[j];
}

/* _clamp: the value clamped into [low, high], and the symbol 2t less how
 * far the value sat outside */
static inline void clamp_cells(const int16_t *restrict grid, uint8_t *restrict shifted,
                               uint8_t *restrict symbols, uint64_t i, uint64_t count,
                               int16_t low, int16_t high) {
    int16_t clear = (int16_t)(low + low);
    for (uint64_t j = i; j < i + count; j++) {
        int16_t v = grid[j], c = v < low ? low : v > high ? high : v;
        shifted[j] = (uint8_t)c;
        symbols[j] = (uint8_t)(clear - (v < c ? c - v : v - c));
    }
}

/* _unclamp: a marked cell sat 2t - symbol below low or above high; returns
 * whether a marked cell sits on neither */
static inline int16_t unclamp_cells(const uint8_t *restrict shifted,
                                    const uint8_t *restrict symbols, int16_t *restrict grid,
                                    uint64_t i, uint64_t count, int16_t low, int16_t high) {
    int16_t clear = (int16_t)(low + low), bad = 0;
    for (uint64_t j = i; j < i + count; j++) {
        int16_t v = shifted[j], outside = (int16_t)(clear - symbols[j]);
        int16_t side = (int16_t)((v == high) - (v == low));
        grid[j] = (int16_t)(v + outside * side);
        bad |= (int16_t)((outside != 0) & (side == 0));
    }
    return bad;
}

/* the recovered cover; returns whether a value leaves [0, 255] */
static inline int16_t narrow(const int16_t *restrict grid, uint8_t *restrict cover, uint64_t i,
                             uint64_t count) {
    int16_t outside = 0;
    for (uint64_t j = i; j < i + count; j++) {
        outside |= (int16_t)((grid[j] < 0) | (grid[j] > 255));
        cover[j] = (uint8_t)grid[j];
    }
    return outside;
}

/* preprocess.forward of an h x w cover (h, w >= 2; shift, t_even and
 * t_odd in [1, 127]): out[0, n) takes the shifted image and out[n, 2n)
 * its map symbols, n = h w. Returns BS_NO_MEMORY where it cannot allocate
 * its two int16 grids, else BS_OK. */
int bs_forward(const uint8_t *restrict cover, uint64_t h, uint64_t w, int32_t shift,
               int32_t t_even, int32_t t_odd, uint8_t *restrict out) {
    uint64_t n = h * w, i;
    int16_t low = (int16_t)shift, high = (int16_t)(255 - shift);
    int16_t *a = malloc(2 * n * sizeof(int16_t)), *b = a + n;
    if (a == NULL)
        return BS_NO_MEMORY;
    for (i = 0; i + BLOCK <= n; i += BLOCK)
        widen(cover, a, i, BLOCK);
    widen(cover, a, i, n - i);
    pass(a, b, h, w, 0, t_even, shift);
    pass(b, a, h, w, 1, t_odd, shift);
    for (i = 0; i + BLOCK <= n; i += BLOCK)
        clamp_cells(a, out, out + n, i, BLOCK, low, high);
    clamp_cells(a, out, out + n, i, n - i, low, high);
    free(a);
    return BS_OK;
}

/* preprocess.inverse of an h x w shifted image and its map symbols (h,
 * w >= 2; shift, t_even and t_odd in [1, 127]; the image in [shift,
 * 255 - shift] and the symbols in [0, 2 shift]) into cover. Returns
 * BS_OFF_ENDPOINT, with the flat position of the first such cell in *at,
 * where the map marks a cell whose value is no endpoint of that range;
 * BS_OUT_OF_RANGE where the undone passes leave [0, 255]; BS_NO_MEMORY
 * where it cannot allocate its two int16 grids; and BS_OK otherwise. */
int bs_inverse(const uint8_t *restrict shifted, const uint8_t *restrict symbols, uint64_t h,
               uint64_t w, int32_t shift, int32_t t_even, int32_t t_odd,
               uint8_t *restrict cover, uint64_t *at) {
    uint64_t n = h * w, i;
    int16_t low = (int16_t)shift, high = (int16_t)(255 - shift), bad = 0;
    int16_t *a = malloc(2 * n * sizeof(int16_t)), *b = a + n;
    if (a == NULL)
        return BS_NO_MEMORY;
    for (i = 0; i + BLOCK <= n; i += BLOCK)
        bad |= unclamp_cells(shifted, symbols, a, i, BLOCK, low, high);
    bad |= unclamp_cells(shifted, symbols, a, i, n - i, low, high);
    if (bad) {
        for (i = 0; symbols[i] == 2 * shift || shifted[i] == low || shifted[i] == high; i++)
            ;
        *at = i;
        free(a);
        return BS_OFF_ENDPOINT;
    }
    pass(a, b, h, w, 1, t_odd, -shift);
    pass(b, a, h, w, 0, t_even, -shift);
    for (i = 0; i + BLOCK <= n; i += BLOCK)
        bad |= narrow(a, cover, i, BLOCK);
    bad |= narrow(a, cover, i, n - i);
    free(a);
    return bad ? BS_OUT_OF_RANGE : BS_OK;
}

/* embedder.capacity past its checks: the even cells of an h x w uint8 grid
 * whose error is 0 or -1, its prediction's rows stride cells apart. A row
 * is taken BLOCK cells at a time, each cell's test masked by its parity,
 * and its last cells one at a time. */
uint64_t bs_capacity(const uint8_t *restrict grid, const int16_t *restrict pred, uint64_t stride,
                     uint64_t h, uint64_t w) {
    uint16_t even[BLOCK + 1];
    uint64_t room = 0;
    for (int j = 0; j <= BLOCK; j++)
        even[j] = (uint16_t)(j % 2 == 0);
    for (uint64_t r = 0; r < h; r++) {
        const uint8_t *v = grid + r * w;
        const int16_t *p = pred + r * stride;
        /* even[j] of a block of the row is whether cell j is even, the
         * same for every block, as BLOCK is even */
        const uint16_t *mask = even + (r & 1);
        uint64_t c = 0;
        for (; c + BLOCK <= w; c += BLOCK) {
            const uint8_t *vb = v + c;
            const int16_t *pb = p + c;
            uint16_t count = 0;
            for (int j = 0; j < BLOCK; j++)
                count = (uint16_t)(count + (((uint16_t)(vb[j] - pb[j] + 1) <= 1) & mask[j]));
            room += count;
        }
        for (c += (r + c) & 1; c < w; c += 2)
            room += (uint32_t)(v[c] - p[c] + 1) <= 1;
    }
    return room;
}

/* embedder.embed past its checks, into out: bits holds a byte per even
 * cell, the payload then zeros. An even cell of error e moves by
 * move[e + 255][bit], bit the next payload bit where e is a carrier's. */
void bs_embed(const uint8_t *restrict grid, const int16_t *restrict pred, uint64_t stride,
              uint64_t h, uint64_t w, const uint8_t *restrict bits, uint8_t *restrict out) {
    int8_t move[511][2];
    uint8_t carrier[511];
    uint64_t k = 0;
    for (int32_t e = -255; e <= 255; e++) {
        int32_t shift = (e >= 1) - (e <= -2), carries_bit = e == 0 || e == -1;
        move[e + 255][0] = (int8_t)shift;
        move[e + 255][1] = (int8_t)(carries_bit ? 2 * e + 1 : shift);
        carrier[e + 255] = (uint8_t)carries_bit;
    }
    for (uint64_t r = 0; r < h; r++) {
        const uint8_t *v = grid + r * w;
        const int16_t *p = pred + r * stride;
        uint8_t *o = out + r * w;
        memcpy(o, v, w);
        for (uint64_t c = r & 1; c < w; c += 2) {
            int32_t i = v[c] - p[c] + 255;
            o[c] = (uint8_t)(v[c] + move[i][bits[k] & 1]);
            k += carrier[i];
        }
    }
}

/* embedder.extract past its checks: writes the bit of each even cell whose
 * code is in [-2, 1] to bits, which holds a byte per even cell, and the
 * restored grid to out; returns the number of bits. code[c + 255] holds a
 * code c's bit, and 2 where c is in the window. */
uint64_t bs_extract(const uint8_t *restrict grid, const int16_t *restrict pred, uint64_t stride,
                    uint64_t h, uint64_t w, uint8_t *restrict bits, uint8_t *restrict out) {
    uint8_t code[511];
    int8_t undo[511];
    uint64_t k = 0;
    for (int32_t c = -255; c <= 255; c++) {
        int32_t bit = c >= 0 ? c : -(c + 1), window = -2 <= c && c <= 1;
        code[c + 255] = (uint8_t)((bit & 1) | window << 1);
        undo[c + 255] = (int8_t)((c <= -2) - (c >= 1));
    }
    for (uint64_t r = 0; r < h; r++) {
        const uint8_t *v = grid + r * w;
        const int16_t *p = pred + r * stride;
        uint8_t *o = out + r * w;
        memcpy(o, v, w);
        for (uint64_t c = r & 1; c < w; c += 2) {
            int32_t i = v[c] - p[c] + 255;
            bits[k] = code[i] & 1;
            k += code[i] >> 1;
            o[c] = (uint8_t)(v[c] + undo[i]);
        }
    }
    return k;
}
