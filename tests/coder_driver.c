/* Stdin driver for the location-map coder kernel, built with sanitizers.
 *
 * Linked with src/boundshift/_coder.c by tests/test_codec.py, as
 *   cc -fsanitize=address,undefined coder_driver.c _coder.c
 * it reads records from stdin and writes one line per record to stdout:
 *   'd' u64 bit_length, u64 count, u32 alphabet, u32 nbytes, nbytes of data
 *       -> "d <status> <hex of the decoded symbols>"
 *   'e' u64 n, u32 alphabet, n symbols
 *       -> "e <bit length> <hex of the coded bytes>"
 * Integers are little-endian. Each input buffer is allocated at its exact
 * size, so a read past it is an AddressSanitizer report.
 */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

uint64_t bs_encode(const uint8_t *symbols, uint64_t n, int alphabet, uint8_t *out);
int bs_decode(const uint8_t *data, uint64_t bit_length, uint64_t count, int alphabet,
              uint8_t **out, uint64_t *n_out);
void bs_free(uint8_t *buf);

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
        } else {
            fprintf(stderr, "unknown record kind %d\n", kind);
            return 2;
        }
    }
    return 0;
}
