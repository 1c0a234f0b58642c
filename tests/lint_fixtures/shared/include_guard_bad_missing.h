// Positive fixture: include-guard — this header has no
// #ifndef/#define guard at all. Never compiled.

namespace mtia {
inline int
answer()
{
    return 42;
}
} // namespace mtia
