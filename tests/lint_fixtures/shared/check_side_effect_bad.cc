// Positive fixture: check-side-effect — mutations inside CHECK
// macro conditions, which vanish in builds that compile the checks
// out. Never compiled.

#define MTIA_CHECK(x) (void)(x)
#define MTIA_DCHECK_EQ(a, b) (void)((a) == (b))

int
violations(int n, int m)
{
    MTIA_CHECK(n++ > 0);
    MTIA_CHECK(--m > 0);
    MTIA_DCHECK_EQ(n = m, 1);
    MTIA_CHECK(n
               ++ > 0); // reported at the MTIA_CHECK line
    return n + m;
}
