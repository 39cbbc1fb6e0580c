/* The compiled part of rnasel: one annealing chain of Metropolis swap moves
 * (the C twin of rnasel._kernels.anneal_chain), the row parser that
 * rnasel.ingest.load_matrix uses for well-formed matrix files, and the row
 * writer that rnasel.ingest.write_table uses for its "%.17g" numbers. The
 * parser and the writer share the table of powers of five that
 * rnasel._ckernel.powers_of_five builds, and the 64 x 64 -> 128-bit multiply.
 *
 * Every floating-point operation of the chain is written in the order of the
 * Python reference, and the library is built with -ffp-contract=off and
 * without -ffast-math, so both give the same bits. Random numbers come from
 * the chain's own numpy bit generator through its public bitgen_t interface,
 * in the reference's draw order: the position into the subset, the position
 * into the complement, then one uniform only when the move does not improve.
 */
#include <math.h>
#include <stdio.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Mirrored by rnasel._ckernel.Chain; the last three fields are updated in place. */
typedef struct {
    const double *ratios; /* F x G, row-major */
    const double *norms;  /* F */
    const int64_t *iu, *ju; /* P */
    const double *w;      /* P */
    int64_t *sel, *comp, *best_sel; /* n, F - n, n */
    double *s1, *s2, *cp; /* G, G, P */
    double *t_s1, *t_s2, *t_cp, *m, *v;
    int64_t g, p, n, n_comp;
    double max_norm, alpha, count_pos, rel_var_eps;
    double norm_sum, cur_u, best_u;
} chain_t;

/* Generator.integers(0, k) for 1 <= k <= 2**32: numpy's unmasked Lemire rule. */
int64_t rnasel_bounded(bitgen_t *bg, int64_t k)
{
    uint32_t rng = (uint32_t)(k - 1), rng_excl = rng + 1, leftover;
    uint64_t m;
    if (rng == 0)
        return 0;
    if (rng == UINT32_MAX)
        return bg->next_uint32(bg->state);
    m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

static double u1_from_sums(const chain_t *c)
{
    const double inv = 1.0 / (double)c->n;
    double acc = 0.0;
    for (int64_t g = 0; g < c->g; g++) {
        double mean = c->t_s1[g] * inv, mean_sq = c->t_s2[g] * inv;
        double var = mean_sq - mean * mean;
        if (var <= c->rel_var_eps * mean_sq)
            var = 0.0;
        c->m[g] = mean;
        c->v[g] = var;
    }
    for (int64_t p = 0; p < c->p; p++) {
        double wp = c->w[p], dv, r;
        if (wp == 0.0)
            continue;
        dv = c->v[c->iu[p]] * c->v[c->ju[p]];
        if (dv <= 0.0)
            continue;
        r = (c->t_cp[p] * inv - c->m[c->iu[p]] * c->m[c->ju[p]]) / sqrt(dv);
        if (r > 1.0)
            r = 1.0;
        else if (r < -1.0)
            r = -1.0;
        acc += wp * fabs(r);
    }
    return acc / c->count_pos;
}

/* n_swaps proposals at one temperature; returns how many were accepted. */
static int64_t anneal_step(chain_t *c, bitgen_t *bg, double temperature, int64_t n_swaps)
{
    int64_t accepted = 0;
    for (int64_t s = 0; s < n_swaps; s++) {
        int64_t i = rnasel_bounded(bg, c->n), j = rnasel_bounded(bg, c->n_comp);
        int64_t out_f = c->sel[i], in_f = c->comp[j];
        const double *a = c->ratios + in_f * c->g, *b = c->ratios + out_f * c->g;
        double new_norm_sum, new_u;
        int take;
        for (int64_t g = 0; g < c->g; g++) {
            c->t_s1[g] = c->s1[g] + a[g] - b[g];
            c->t_s2[g] = c->s2[g] + a[g] * a[g] - b[g] * b[g];
        }
        for (int64_t p = 0; p < c->p; p++)
            c->t_cp[p] = c->cp[p] + a[c->iu[p]] * a[c->ju[p]] - b[c->iu[p]] * b[c->ju[p]];
        new_norm_sum = c->norm_sum + c->norms[in_f] - c->norms[out_f];
        new_u = (1.0 - c->alpha) * u1_from_sums(c)
                + c->alpha * (new_norm_sum / ((double)c->n * c->max_norm));
        if (new_u > c->cur_u)
            take = 1;
        else
            take = bg->next_double(bg->state) < exp(-(c->cur_u - new_u) / temperature);
        if (!take)
            continue;
        for (int64_t g = 0; g < c->g; g++) {
            c->s1[g] = c->t_s1[g];
            c->s2[g] = c->t_s2[g];
        }
        for (int64_t p = 0; p < c->p; p++)
            c->cp[p] = c->t_cp[p];
        c->norm_sum = new_norm_sum;
        c->sel[i] = in_f;
        c->comp[j] = out_f;
        c->cur_u = new_u;
        accepted++;
        if (c->cur_u > c->best_u) {
            c->best_u = c->cur_u;
            for (int64_t q = 0; q < c->n; q++)
                c->best_sel[q] = c->sel[q];
        }
    }
    return accepted;
}

/* Every step of the chain: n_swaps proposals at each of the n_steps
 * temperatures, writing the current u, the best u and the accepted count
 * after each step. */
void rnasel_anneal_chain(chain_t *c, bitgen_t *bg, const double *temperatures, int64_t n_steps,
                         int64_t n_swaps, double *cur_u, double *best_u, int64_t *accepted)
{
    for (int64_t k = 0; k < n_steps; k++) {
        accepted[k] = anneal_step(c, bg, temperatures[k], n_swaps);
        cur_u[k] = c->cur_u;
        best_u[k] = c->best_u;
    }
}

/* The decimal w * 10^q read from a number: w holds its first 19 significant
 * digits, and exact is 0 if a digit after those is not zero or the exponent
 * reached EXPONENT_CAP. */
typedef struct {
    uint64_t w;
    int64_t q;
    int negative, exact;
} decimal_t;

/* Exponent digits stop counting at this value; strtod converts the number. */
#define EXPONENT_CAP 100000

/* Length of the number at p (at most end - p bytes) in the form
 * [+-]?(digits[.digits*]|.digits)([eE][+-]?digits)?, or -1 if it does not
 * start with one; its value goes to *d. Every such number is also a Python
 * float literal. */
static int64_t scan_number(const char *p, const char *end, decimal_t *d)
{
    const char *q = p;
    int64_t digits = 0, exponent = 0;
    int kept = 0, fraction = 0;
    d->w = 0;
    d->q = 0;
    d->exact = 1;
    d->negative = q < end && *q == '-';
    if (q < end && (*q == '+' || *q == '-'))
        q++;
    for (;; q++) {
        if (q < end && *q == '.' && !fraction) {
            fraction = 1;
            continue;
        }
        if (q == end || *q < '0' || *q > '9')
            break;
        digits++;
        if (kept < 19) { /* leading zeros keep w at 0 and do not count */
            d->w = 10 * d->w + (uint64_t)(*q - '0');
            kept += d->w != 0;
            d->q -= fraction;
        } else {
            d->exact &= *q == '0';
            d->q += !fraction;
        }
    }
    if (digits == 0)
        return -1;
    if (q < end && (*q == 'e' || *q == 'E')) {
        const char *e = q + 1;
        int minus = e < end && *e == '-';
        if (e < end && (*e == '+' || *e == '-'))
            e++;
        if (e == end || *e < '0' || *e > '9')
            return -1;
        for (q = e; q < end && *q >= '0' && *q <= '9'; q++)
            if (exponent < EXPONENT_CAP)
                exponent = 10 * exponent + (*q - '0');
        d->exact &= exponent < EXPONENT_CAP;
        d->q += minus ? -exponent : exponent;
    }
    return q - p;
}

/* 64 x 64 -> 128-bit product: returns the high word, stores the low one. */
static uint64_t multiply(uint64_t a, uint64_t b, uint64_t *low)
{
    const uint64_t mask = 0xFFFFFFFFu;
    uint64_t a0 = a & mask, a1 = a >> 32, b0 = b & mask, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t middle = (p00 >> 32) + (p01 & mask) + (p10 & mask);
    *low = middle << 32 | (p00 & mask);
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (middle >> 32);
}

/* Leading zero bits of x, for 0 < x < 2^64 - 2^11, read from the exponent of
 * (double)x; a conversion that rounds up to the next power of two reads one
 * too few. As fast as a count-leading-zeros instruction, and plain C. */
static int leading_zeros(uint64_t x)
{
    double d = (double)x;
    uint64_t bits;
    int n;
    memcpy(&bits, &d, sizeof bits);
    n = 1086 - (int)(bits >> 52);
    return n + !(x << n >> 63);
}

/* The table pow5 holds 5^q for q in [POW5_MIN_Q, POW5_MAX_Q] as 128-bit
 * (high, low) word pairs; rnasel._ckernel.powers_of_five builds it. */
#define POW5_MIN_Q (-342)
#define POW5_MAX_Q 308

/* floor(v / 2^bits), also for a negative v, where >> is not portable. */
static int64_t floor_shift(int64_t v, int bits)
{
    return v >= 0 ? v >> bits : -((-v + ((int64_t)1 << bits) - 1) >> bits);
}

/* floor(q * log2(10)) for q in [POW5_MIN_Q, POW5_MAX_Q] */
static int64_t floor_log2_pow10(int64_t q)
{
    return floor_shift(217706 * q, 16);
}

/* The double nearest to d (ties to even), by the Eisel-Lemire algorithm
 * (Lemire, "Number Parsing at a Gigabyte per Second", 2021). Returns 0 and
 * leaves *value alone where it does not apply: more than 19 significant
 * digits, q outside the table, a subnormal or infinite result, or the rare
 * product that cannot decide the rounding. */
static int eisel_lemire(const decimal_t *d, const uint64_t *pow5, double *value)
{
    const uint64_t *p5;
    uint64_t w = d->w, high, low, high2, low2, mantissa, bits;
    int64_t power2;
    int lz, upper, shift;
    if (w == 0) {
        *value = d->negative ? -0.0 : 0.0;
        return 1;
    }
    if (!d->exact || d->q < POW5_MIN_Q || d->q > POW5_MAX_Q)
        return 0;
    p5 = pow5 + 2 * (d->q - POW5_MIN_Q);
    lz = leading_zeros(w);
    w <<= lz;
    high = multiply(w, p5[0], &low);
    if ((high & 0x1FF) == 0x1FF) { /* the truncated part may carry into the 55 bits kept */
        high2 = multiply(w, p5[1], &low2);
        low += high2;
        high += low < high2;
    }
    /* the product may lie just under a rounding boundary; only for q in
     * [-27, 55] is the table entry exact enough to tell */
    if (low == UINT64_MAX && (d->q < -27 || d->q > 55))
        return 0;
    upper = (int)(high >> 63);
    shift = upper + 9;
    mantissa = high >> shift;
    power2 = floor_log2_pow10(d->q) + 63 + upper - lz + 1023;
    if (power2 <= 0)
        return 0;
    /* An exact halfway point rounds to even, not up. Only for q in [-4, 23]
     * can w * 5^q be one, and then nothing below the kept bits is set. */
    if (low <= 1 && d->q >= -4 && d->q <= 23 && (mantissa & 3) == 1 && mantissa << shift == high)
        mantissa &= ~(uint64_t)1;
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >= (uint64_t)2 << 52) { /* rounding carried into a new bit */
        mantissa = (uint64_t)1 << 52;
        power2++;
    }
    if (power2 >= 0x7FF)
        return 0;
    bits = (uint64_t)power2 << 52 | (mantissa & (((uint64_t)1 << 52) - 1)) | (uint64_t)d->negative << 63;
    memcpy(value, &bits, sizeof bits);
    return 1;
}

/* Parse the complete rows of buf[0, len), each "id" then `width` fields
 * "<delim>number" and then "\n" or "\r\n", and stop at the first row not of
 * that form. The id holds no delimiter, quote, NUL, "\r" or "\n"; no field
 * is longer than max_field bytes. Row r's numbers go to
 * values[r * width, (r + 1) * width) and its id to buf[id_span[2r],
 * id_span[2r + 1]). Each number is converted by eisel_lemire with the table
 * pow5, else by strtod. Reads nothing outside buf[0, len) and parses at most
 * max_rows rows; returns how many it parsed, and stores in *consumed the bytes
 * those rows take, so that a block parses whole exactly when *consumed is len.
 * A row takes at least 2 * width + 1 bytes (an empty id and one digit per
 * field), so len / (2 * width + 1) rows is room for any block. */
int64_t rnasel_parse_rows(const char *buf, int64_t len, int delim, int64_t width, int64_t max_field,
                          int64_t max_rows, const uint64_t *pow5, double *values, int64_t *id_span,
                          int64_t *consumed)
{
    const char *end = buf + len, *p = buf;
    int64_t rows = 0;
    *consumed = 0;
    for (; rows < max_rows; rows++) {
        const char *row = p;
        double *out = values + rows * width;
        for (; p < end && *p != delim; p++)
            if (*p == '"' || *p == '\0' || *p == '\r' || *p == '\n')
                return rows;
        if (p == end || p - row > max_field)
            return rows;
        id_span[2 * rows] = row - buf;
        id_span[2 * rows + 1] = p - buf;
        for (int64_t k = 0; k < width; k++) {
            const char *field = ++p; /* past the delimiter */
            decimal_t d;
            int64_t n = scan_number(field, end, &d);
            if (n < 0 || n > max_field)
                return rows;
            p = field + n;
            /* what follows the number: the next delimiter, else the row end */
            if (p == end)
                return rows;
            if (k + 1 < width ? *p != delim
                              : !(*p == '\n' || (*p == '\r' && p + 1 < end && p[1] == '\n')))
                return rows;
            if (!eisel_lemire(&d, pow5, out + k)) {
                /* strtod reads the validated number and stops at the byte after it */
                char *stop;
                out[k] = strtod(field, &stop);
                if (stop != p)
                    return rows;
            }
        }
        p += *p == '\r' ? 2 : 1;
        *consumed = p - buf;
    }
    return rows;
}

/* Bytes of "<delim>" and the longest "%.17g" of a double, "-d.<16 digits>e-ddd". */
#define FORMAT_BYTES 25

/* x * 10^q for x = m * 2^e (m < 2^53, q in the table) as a 128-bit fixed-point
 * number: returns the integer part and stores the fraction, whose top
 * fraction_bits bits are in *fraction and the next 64 in *low. The product is
 * within 2 units of *low's last place of x * 10^q: the table entry is within 1
 * of 5^q * 2^(127 - floor(q log2 5)), and the dropped low word adds under 1. */
static uint64_t scale_by_pow10(uint64_t m, int64_t e, int64_t q, const uint64_t *pow5,
                               uint64_t *fraction, uint64_t *low, int *fraction_bits)
{
    const uint64_t *p5 = pow5 + 2 * (q - POW5_MIN_Q);
    uint64_t w = m << 11, high, low2, high2;
    int s = (int)(10 - e - floor_log2_pow10(q));
    high = multiply(w, p5[0], low);
    high2 = multiply(w, p5[1], &low2);
    *low += high2;
    high += *low < high2;
    *fraction = high & (((uint64_t)1 << s) - 1);
    *fraction_bits = s;
    return high >> s;
}

/* "00" to "99" */
static const char digit_pairs[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The 8 decimal digits of v < 10^8, with leading zeros, to out. */
static void write_8_digits(uint32_t v, char *out)
{
    uint32_t high = v / 10000, low = v % 10000;
    memcpy(out, digit_pairs + 2 * (high / 100), 2);
    memcpy(out + 2, digit_pairs + 2 * (high % 100), 2);
    memcpy(out + 4, digit_pairs + 2 * (low / 100), 2);
    memcpy(out + 6, digit_pairs + 2 * (low % 100), 2);
}

/* Write x as Python's "%.17g" % x writes it, to out (at least FORMAT_BYTES
 * bytes); returns the bytes written. The 17 digits are round(|x| * 10^(16 - k))
 * with k = floor(log10 |x|), from one product with the table in place of the
 * big-number arithmetic of Steele & White ("How to Print Floating-Point
 * Numbers Accurately", 1990), as in Adams ("Ryu revisited: printf floating
 * point conversion", 2019). snprintf writes what the product cannot decide: a
 * fraction within 2 units of one half (every exact tie among them), a
 * subnormal, and |x| < 1e-292, where 16 - k is past the table. Python writes
 * every NaN as "nan". */
static int format_g17(double x, const uint64_t *pow5, char *out)
{
    static const uint64_t ten16 = 10000000000000000u, ten17 = 100000000000000000u;
    uint64_t bits, m, digits, fraction, low, half;
    int64_t e, k, q;
    int n = 0, fraction_bits, last, i;
    char d[17], fallback[32];
    memcpy(&bits, &x, sizeof bits);
    if (x != x) {
        memcpy(out, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        out[n++] = '-';
    e = (int64_t)(bits >> 52 & 0x7FF);
    if (e == 0x7FF) {
        memcpy(out + n, "inf", 3);
        return n + 3;
    }
    if (x == 0) {
        out[n] = '0';
        return n + 1;
    }
    if (e == 0)
        goto slow;
    m = (bits & (((uint64_t)1 << 52) - 1)) | (uint64_t)1 << 52;
    e -= 1075;
    /* floor(log10(2^(e + 52))): k itself, or one too low */
    k = floor_shift((e + 52) * 78913, 18);
    q = 16 - k;
    if (q > POW5_MAX_Q)
        goto slow;
    digits = scale_by_pow10(m, e, q, pow5, &fraction, &low, &fraction_bits);
    if (digits >= ten17) {
        k++;
        q--;
        digits = scale_by_pow10(m, e, q, pow5, &fraction, &low, &fraction_bits);
    }
    half = (uint64_t)1 << (fraction_bits - 1);
    if ((fraction == half && low <= 2) || (fraction == half - 1 && low >= UINT64_MAX - 1))
        goto slow;
    digits += fraction >= half;
    if (digits == ten17) { /* rounding carried into an 18th digit */
        digits = ten16;
        k++;
    }
    d[0] = (char)('0' + digits / ten16);
    digits %= ten16;
    write_8_digits((uint32_t)(digits / 100000000u), d + 1);
    write_8_digits((uint32_t)(digits % 100000000u), d + 9);
    for (last = 16; d[last] == '0'; last--)
        ;
    if (k < -4 || k >= 17) { /* d.ddde+XX */
        out[n++] = d[0];
        if (last > 0) {
            out[n++] = '.';
            memcpy(out + n, d + 1, (size_t)last);
            n += last;
        }
        out[n++] = 'e';
        out[n++] = k < 0 ? '-' : '+';
        if (k < 0)
            k = -k;
        if (k >= 100)
            out[n++] = (char)('0' + k / 100);
        out[n++] = (char)('0' + k / 10 % 10);
        out[n++] = (char)('0' + k % 10);
    } else if (k < 0) { /* 0.000ddd */
        memcpy(out + n, "0.000", (size_t)(1 - k));
        n += (int)(1 - k);
        memcpy(out + n, d, (size_t)last + 1);
        n += last + 1;
    } else { /* ddd.ddd */
        memcpy(out + n, d, (size_t)k + 1);
        n += (int)k + 1;
        if (last > k) {
            out[n++] = '.';
            memcpy(out + n, d + k + 1, (size_t)(last - k));
            n += (int)(last - k);
        }
    }
    return n;
slow:
    i = snprintf(fallback, sizeof fallback, "%.17g", x);
    memcpy(out, fallback, (size_t)i);
    return i;
}

/* Write the width numbers at values, each as "<delim>" and then the bytes of
 * Python's "%.17g" % x, and then "\n", to out (at least FORMAT_BYTES * width
 * + 1 bytes), using the table pow5; returns the bytes written. */
int64_t rnasel_format_row(const double *values, int64_t width, int delim, const uint64_t *pow5, char *out)
{
    char *p = out;
    for (int64_t k = 0; k < width; k++) {
        *p++ = (char)delim;
        p += format_g17(values[k], pow5, p);
    }
    *p++ = '\n';
    return p - out;
}
