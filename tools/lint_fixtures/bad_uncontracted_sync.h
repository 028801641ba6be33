// Known-bad fixture: atomics outside the std::atomic / __atomic vocabulary.
// The __sync_ builtin has no row in contract.tsv — phch_lint must report
// atomic-contract-missing — and the inline-asm exchange declares no
// `phch_lint: order(...)`, so it must also report atomic-implicit-order.
#pragma once

class bad_uncontracted_sync {
 public:
  long bump() { return __sync_fetch_and_add(&count_, 1L); }
  long swap(long v) {
    asm volatile("xchg %0, %1" : "+r"(v), "+m"(word_) : : "memory");
    return v;
  }

 private:
  long count_ = 0;
  long word_ = 0;
};
