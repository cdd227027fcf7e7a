/* Stdin driver for the location-map coder kernel, built with sanitizers.
 *
 * Linked with src/boundshift/_coder.c by tests/test_codec.py, as
 *   cc -fsanitize=address,undefined coder_driver.c _coder.c
 * it reads records from stdin and writes one line per record to stdout:
 *   'd' u64 bit_length, u64 count, u32 alphabet, u32 nbytes, nbytes of data
 *       -> "d <status> <hex of the decoded symbols>"
 *   'e' u64 n, u32 alphabet, n symbols
 *       -> "e <bit length> <hex of the coded bytes>"
 *   'p' u64 h, u64 w, i32 shift, u32 size, u32 passes, 128 bytes of first,
 *       h * w int16 of table, then per pass h * w int16 of the even pass
 *       and h * w of its prediction
 *       -> per pass "p <status> <listed> <hex of marked> <hex of cells>
 *          <hex of index> <hex of flip> <hex of rooms>"
 *   'f' u64 h, u64 w, i32 shift, i32 t_even, i32 t_odd, h * w bytes of cover
 *       -> "f <status> <hex of the shifted image> <hex of the map symbols>"
 *   'i' u64 h, u64 w, i32 shift, i32 t_even, i32 t_odd, h * w bytes of the
 *       shifted image, then h * w of its map symbols
 *       -> "i <status> <position of the first cell off the endpoints, or 0>
 *          <hex of the cover, empty unless the status is 0>"
 *   'c' u64 h, u64 w, u64 stride, h * w bytes of a grid, then its prediction:
 *       (h - 1) * stride + w int16, its rows stride cells apart
 *       -> "c <room>"
 *   'm' the same, then (h * w + 1) / 2 bytes of bits
 *       -> "m <hex of the marked grid>"
 *   'x' the same as 'c'
 *       -> "x <number of bits> <hex of the bits> <hex of the restored grid>"
 * Integers are little-endian, and so is the hex of an int16 or int64 array.
 * Each buffer is allocated at its exact size, so a read or write past it is
 * an AddressSanitizer report. The passes of a 'p' record share one scratch,
 * as a sweep's do, released after the last.
 */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

uint64_t bs_encode(const uint8_t *symbols, uint64_t n, int alphabet, uint8_t *out);
int bs_decode(const uint8_t *data, uint64_t bit_length, uint64_t count, int alphabet,
              uint8_t **out, uint64_t *n_out);
void bs_free(uint8_t *buf);
int bs_pass_step(const int16_t *grid, const int16_t *pred, const int16_t *table,
                 uint64_t h, uint64_t w, int32_t shift, const uint8_t *first, int32_t size,
                 uint8_t *marked, int64_t *cells, int64_t *index, int8_t *flip,
                 int64_t *rooms, uint64_t *listed, void **work);
int bs_forward(const uint8_t *cover, uint64_t h, uint64_t w, int32_t shift, int32_t t_even,
               int32_t t_odd, uint8_t *out);
int bs_inverse(const uint8_t *shifted, const uint8_t *symbols, uint64_t h, uint64_t w,
               int32_t shift, int32_t t_even, int32_t t_odd, uint8_t *cover, uint64_t *at);
uint64_t bs_capacity(const uint8_t *grid, const int16_t *pred, uint64_t stride, uint64_t h,
                     uint64_t w);
void bs_embed(const uint8_t *grid, const int16_t *pred, uint64_t stride, uint64_t h, uint64_t w,
              const uint8_t *bits, uint8_t *out);
uint64_t bs_extract(const uint8_t *grid, const int16_t *pred, uint64_t stride, uint64_t h,
                    uint64_t w, uint8_t *bits, uint8_t *out);

static uint64_t read_u(int bytes) {
    uint64_t v = 0;
    for (int i = 0; i < bytes; i++) {
        int c = getchar();
        if (c == EOF) {
            fprintf(stderr, "truncated record\n");
            exit(2);
        }
        v |= (uint64_t)c << (8 * i);
    }
    return v;
}

static uint8_t *read_bytes(uint64_t n) {
    uint8_t *buf = malloc(n ? n : 1);
    if (buf == NULL || fread(buf, 1, n, stdin) != n) {
        fprintf(stderr, "truncated record\n");
        exit(2);
    }
    return buf;
}

static void print_hex(const uint8_t *buf, uint64_t n) {
    for (uint64_t i = 0; i < n; i++)
        printf("%02x", buf[i]);
    printf("\n");
}

/* n int16 values, read as little-endian into an array of their exact size */
static int16_t *read_int16(uint64_t n) {
    int16_t *out = malloc(n ? n * sizeof(int16_t) : 1);
    if (out == NULL)
        exit(2);
    for (uint64_t i = 0; i < n; i++)
        out[i] = (int16_t)(uint16_t)read_u(2);
    return out;
}

/* n int64 values as little-endian hex, then a space */
static void print_int64(const int64_t *values, uint64_t n) {
    for (uint64_t i = 0; i < n; i++)
        for (int b = 0; b < 8; b++)
            printf("%02x", (unsigned)(((uint64_t)values[i] >> (8 * b)) & 0xff));
    printf(" ");
}

static void pass_steps(void) {
    uint64_t h = read_u(8), w = read_u(8), n = h * w, listed = 0;
    int32_t shift = (int32_t)read_u(4), size = (int32_t)read_u(4);
    uint64_t passes = read_u(4);
    uint8_t *first = read_bytes(128);
    int16_t *table = read_int16(n);
    uint8_t *marked = malloc(n);
    /* a grid of at least 2x2 has n / 2 >= 2 odd cells */
    int64_t *cells = malloc(n / 2 * sizeof(int64_t)), *index = malloc(n / 2 * sizeof(int64_t));
    int8_t *flip = malloc(n / 2);
    int64_t *rooms = malloc((uint64_t)size * sizeof(int64_t));
    void *work = NULL;
    if (marked == NULL || cells == NULL || index == NULL || flip == NULL || rooms == NULL)
        exit(2);
    for (uint64_t k = 0; k < passes; k++) {
        int16_t *grid = read_int16(n), *pred = read_int16(n);
        int status = bs_pass_step(grid, pred, table, h, w, shift, first, size, marked, cells,
                                  index, flip, rooms, &listed, &work);
        printf("p %d %llu ", status, (unsigned long long)listed);
        for (uint64_t i = 0; i < n; i++)
            printf("%02x", marked[i]);
        printf(" ");
        print_int64(cells, listed);
        print_int64(index, listed);
        for (uint64_t i = 0; i < listed; i++)
            printf("%02x", (uint8_t)flip[i]);
        printf(" ");
        print_int64(rooms, (uint64_t)size);
        printf("\n");
        free(grid);
        free(pred);
    }
    bs_free(work);
    free(first);
    free(table);
    free(marked);
    free(cells);
    free(index);
    free(flip);
    free(rooms);
}

/* an 'f' or 'i' record: forward's or inverse's */
static void transform(int kind) {
    uint64_t h = read_u(8), w = read_u(8), n = h * w, at = 0;
    int32_t shift = (int32_t)read_u(4), t_even = (int32_t)read_u(4), t_odd = (int32_t)read_u(4);
    uint8_t *image = read_bytes(n);
    if (kind == 'f') {
        uint8_t *out = malloc(2 * n);
        if (out == NULL)
            exit(2);
        int status = bs_forward(image, h, w, shift, t_even, t_odd, out);
        printf("f %d ", status);
        for (uint64_t i = 0; i < n; i++)
            printf("%02x", out[i]);
        printf(" ");
        print_hex(out + n, n);
        free(out);
    } else {
        uint8_t *symbols = read_bytes(n), *cover = malloc(n);
        if (cover == NULL)
            exit(2);
        int status = bs_inverse(image, symbols, h, w, shift, t_even, t_odd, cover, &at);
        printf("i %d %llu ", status, (unsigned long long)at);
        print_hex(cover, status == 0 ? n : 0);
        free(symbols);
        free(cover);
    }
    free(image);
}

/* a 'c', 'm' or 'x' record: the embedder's loops */
static void embedder(int kind) {
    uint64_t h = read_u(8), w = read_u(8), stride = read_u(8), n = h * w, even = (n + 1) / 2;
    uint8_t *grid = read_bytes(n);
    int16_t *pred = read_int16((h - 1) * stride + w);
    if (kind == 'c') {
        printf("c %llu\n", (unsigned long long)bs_capacity(grid, pred, stride, h, w));
    } else {
        uint8_t *bits = kind == 'm' ? read_bytes(even) : malloc(even), *out = malloc(n);
        if (bits == NULL || out == NULL)
            exit(2);
        if (kind == 'm') {
            bs_embed(grid, pred, stride, h, w, bits, out);
            printf("m ");
        } else {
            uint64_t k = bs_extract(grid, pred, stride, h, w, bits, out);
            printf("x %llu ", (unsigned long long)k);
            for (uint64_t i = 0; i < k; i++)
                printf("%02x", bits[i]);
            printf(" ");
        }
        print_hex(out, n);
        free(bits);
        free(out);
    }
    free(grid);
    free(pred);
}

int main(void) {
    int kind;
    while ((kind = getchar()) != EOF) {
        if (kind == 'd') {
            uint64_t bit_length = read_u(8), count = read_u(8);
            int alphabet = (int)read_u(4);
            uint8_t *data = read_bytes(read_u(4));
            uint8_t *out;
            uint64_t n;
            int status = bs_decode(data, bit_length, count, alphabet, &out, &n);
            printf("d %d ", status);
            print_hex(out, n);
            bs_free(out);
            free(data);
        } else if (kind == 'e') {
            uint64_t n = read_u(8);
            int alphabet = (int)read_u(4);
            uint8_t *symbols = read_bytes(n);
            uint8_t *out = calloc(4 * n + 1, 1);
            if (out == NULL)
                return 2;
            uint64_t bit_length = bs_encode(symbols, n, alphabet, out);
            printf("e %llu ", (unsigned long long)bit_length);
            print_hex(out, (bit_length + 7) / 8);
            free(out);
            free(symbols);
        } else if (kind == 'p') {
            pass_steps();
        } else if (kind == 'f' || kind == 'i') {
            transform(kind);
        } else if (kind == 'c' || kind == 'm' || kind == 'x') {
            embedder(kind);
        } else {
            fprintf(stderr, "unknown record kind %d\n", kind);
            return 2;
        }
    }
    return 0;
}
