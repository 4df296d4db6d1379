/*
 * The walk of simulate._walk on a fresh cluster, compiled.
 *
 * Every random draw goes through numpy's own routines
 * (numpy/random/distributions.h, linked from numpy's libnpyrandom.a) on the
 * caller's bit generator, in the order the Python kernel makes them. So the
 * final depth, the number of nodes grown and the generator's state
 * afterwards are bit-identical to _walk's.
 *
 * The arena is the Python Cluster's minus two columns: node v's children
 * are first[v] .. first[v]+nchild[v]-1, and nchild[v] < 0 marks v as not
 * expanded yet, its sign standing in for the colour (GREEN_LEAF, RED_LEAF;
 * pipe nodes are built expanded). Depths are counted up the parent links
 * once, at the end. Indices are int32, so max_nodes must be below 2^31.
 */
#include <stdlib.h>

#include "numpy/random/distributions.h"

/* law kinds and status codes: keep in step with simulate.py */
enum { LAW_PMF, LAW_GEOMETRIC, LAW_POISSON, LAW_BINOMIAL, LAW_PIPES };
enum { WALK_OK, WALK_NODE_CAP, WALK_GREEN_CAP, WALK_BUSH_CAP, WALK_NO_MEMORY };

#define UNIFORM_BLOCK 8192
#define GREEN_LEAF (-1)
#define RED_LEAF (-2)

typedef struct {
    int64_t law;
    int64_t n;              /* binomial n, or the number of pmf weights */
    double a;               /* geometric a, poisson mu or binomial q */
    const double *weights;  /* pmf weights */
    double p;
    double rho;
    const double *cdf;      /* bush inverse CDF, covering `coverage` */
    int64_t ncdf;
    double coverage;
    int64_t max_rejections;
    int64_t max_nodes;
    int64_t horizon;
} walk_params;

typedef struct {
    const walk_params *prm;
    bitgen_t *bg;
    binomial_t binomial;
    int32_t *parent, *first, *nchild;
    int64_t size, cap;
} walk_state;

/* Claim n more nodes under the cap; *start is the first one's index. */
static int reserve(walk_state *s, int64_t n, int64_t *start)
{
    if (n > s->prm->max_nodes - s->size)
        return WALK_NODE_CAP;
    if (s->size + n > s->cap) {
        int64_t cap = s->cap;
        while (cap < s->size + n)
            cap *= 2;
        if (cap > s->prm->max_nodes)
            cap = s->prm->max_nodes;
        int32_t **cols[3] = {&s->parent, &s->first, &s->nchild};
        for (int i = 0; i < 3; i++) {
            int32_t *grown = realloc(*cols[i], (size_t)cap * sizeof(int32_t));
            if (grown == NULL)
                return WALK_NO_MEMORY;
            *cols[i] = grown;
        }
        s->cap = cap;
    }
    *start = s->size;
    s->size += n;
    return WALK_OK;
}

/* Cluster._attach, and PipesCluster's pipe after the skeleton children. */
static int attach(walk_state *s, int64_t node, int64_t greens, int64_t reds)
{
    int64_t n = greens + reds, start;
    int status = reserve(s, n, &start);
    if (status)
        return status;
    for (int64_t i = start; i < start + n; i++) {
        s->parent[i] = (int32_t)node;
        s->first[i] = 0;
        s->nchild[i] = i < start + greens ? GREEN_LEAF : RED_LEAF;
    }
    s->first[node] = (int32_t)start;
    s->nchild[node] = (int32_t)n;
    if (s->prm->law != LAW_PIPES)
        return WALK_OK;
    int64_t length = random_geometric(s->bg, 1.0 - s->prm->p) - 1;
    if (length == 0)
        return WALK_OK;
    status = reserve(s, length, &start);
    if (status)
        return status;
    for (int64_t i = start; i < start + length; i++) {
        s->parent[i] = (int32_t)(i == start ? node : i - 1);
        s->first[i] = (int32_t)(i + 1);
        s->nchild[i] = i < start + length - 1;
    }
    s->nchild[node] += 1;
    return WALK_OK;
}

/* The offspring law's sample method. */
static int64_t law_sample(walk_state *s)
{
    const walk_params *prm = s->prm;
    switch (prm->law) {
    case LAW_PMF: {
        double u = next_double(s->bg), cum = 0.0;
        for (int64_t k = 0; k < prm->n; k++) {
            cum += prm->weights[k];
            if (u < cum)
                return k;
        }
        return prm->n - 1;
    }
    case LAW_GEOMETRIC:
        return random_geometric(s->bg, 1.0 - prm->a) - 1;
    case LAW_POISSON:
        return random_poisson(s->bg, prm->a);
    default:
        return random_binomial(s->bg, prm->a, prm->n, &s->binomial);
    }
}

/* Cluster._thinned_count, or PipesCluster's. */
static int64_t thinned_count(walk_state *s)
{
    if (s->prm->law == LAW_PIPES)
        return random_binomial(s->bg, s->prm->p, 2, &s->binomial);
    int64_t k = law_sample(s);
    return k ? random_binomial(s->bg, s->prm->p, k, &s->binomial) : 0;
}

static int expand_green(walk_state *s, int64_t node)
{
    double rho = s->prm->rho;
    for (int64_t i = 0; i < s->prm->max_rejections; i++) {
        int64_t c = thinned_count(s);
        if (c == 0)
            continue;
        int64_t greens = rho > 0.0 ? random_binomial(s->bg, 1.0 - rho, c, &s->binomial) : c;
        if (greens == 0)
            continue;
        return attach(s, node, greens, c - greens);
    }
    return WALK_GREEN_CAP;
}

/* Cluster.expand_red with BushSampler.sample. */
static int expand_red(walk_state *s, int64_t node)
{
    const walk_params *prm = s->prm;
    for (int64_t i = 0; i < prm->max_rejections; i++) {
        double u = next_double(s->bg);
        if (u < prm->coverage) {
            for (int64_t k = 0; k < prm->ncdf; k++) {
                if (u < prm->cdf[k])
                    return attach(s, node, 0, k);
            }
        }
    }
    return WALK_BUSH_CAP;
}

static int walk(walk_state *s, int64_t *depth)
{
    double buf[UNIFORM_BLOCK];
    int64_t pos = 0, cur = 0;
    int status;
    random_standard_uniform_fill(s->bg, UNIFORM_BLOCK, buf);
    for (int64_t t = 0; t < s->prm->horizon; t++) {
        int64_t n = s->nchild[cur];
        if (n < 0) {
            status = n == GREEN_LEAF ? expand_green(s, cur) : expand_red(s, cur);
            if (status)
                return status;
            n = s->nchild[cur];
        }
        if (pos == UNIFORM_BLOCK) {
            random_standard_uniform_fill(s->bg, UNIFORM_BLOCK, buf);
            pos = 0;
        }
        double u = buf[pos++];
        if (cur) {
            int64_t j = (int64_t)(u * (double)(n + 1));
            cur = j == 0 ? s->parent[cur] : s->first[cur] + j - 1;
        } else {
            cur = s->first[0] + (int64_t)(u * (double)n);
        }
    }
    *depth = 0;
    for (; cur; cur = s->parent[cur])
        ++*depth;
    return WALK_OK;
}

/* Walk prm->horizon steps from the root of a fresh cluster; out receives
 * {final depth, nodes grown}. Returns a WALK_* status. The caller keeps
 * 1 <= max_nodes < 2^31. */
int gw_walk(bitgen_t *bg, const walk_params *prm, int64_t *out)
{
    walk_state s = {.prm = prm, .bg = bg, .size = 1, .cap = 1024};
    s.parent = malloc(s.cap * sizeof(int32_t));
    s.first = malloc(s.cap * sizeof(int32_t));
    s.nchild = malloc(s.cap * sizeof(int32_t));
    int status = WALK_NO_MEMORY;
    if (s.parent && s.first && s.nchild) {
        /* the root: green, no parent, not expanded */
        s.parent[0] = -1;
        s.first[0] = 0;
        s.nchild[0] = GREEN_LEAF;
        status = walk(&s, &out[0]);
    }
    out[1] = s.size;
    free(s.parent);
    free(s.first);
    free(s.nchild);
    return status;
}
