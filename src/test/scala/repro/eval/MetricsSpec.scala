package repro.eval

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("precisionAtK of identical rankings is 1") {
    assert(Metrics.precisionAtK(Seq(1L, 2L, 3L), Seq(1L, 2L, 3L), 3) == 1.0)
  }
  test("precisionAtK is order-insensitive within the top k") {
    assert(Metrics.precisionAtK(Seq(3L, 1L, 2L), Seq(1L, 2L, 3L), 3) == 1.0)
  }
  test("precisionAtK of disjoint rankings is 0") {
    assert(Metrics.precisionAtK(Seq(7L, 8L), Seq(1L, 2L), 2) == 0.0)
  }
  test("precisionAtK counts partial overlap") {
    assert(Metrics.precisionAtK(Seq(1L, 9L), Seq(1L, 2L), 2) == 0.5)
  }
  test("precisionAtK caps the denominator at the exact pool size") {
    assert(Metrics.precisionAtK(Seq(1L, 9L, 8L, 7L), Seq(1L), 4) == 1.0)
  }
  test("precisionAtK ignores items beyond k") {
    assert(Metrics.precisionAtK(Seq(9L, 8L, 1L), Seq(1L, 2L), 2) == 0.0)
  }
  test("dcg applies the log2 discount") {
    val d = Metrics.dcg(Seq(1.0, 1.0))
    assert(math.abs(d - (1.0 + 1.0 / (math.log(3) / math.log(2)))) < 1e-9)
  }
  test("dcg of empty gains is 0") {
    assert(Metrics.dcg(Seq.empty) == 0.0)
  }
  test("ndcgAtK of the exact ranking is 1") {
    val jn = Map(1L -> 0.9, 2L -> 0.5, 3L -> 0.2).withDefaultValue(0.0)
    assert(math.abs(Metrics.ndcgAtK(Seq(1L, 2L, 3L), Seq(1L, 2L, 3L), 3, jn) - 1.0) < 1e-9)
  }
  test("ndcgAtK of a worse ranking is below 1") {
    val jn = Map(1L -> 0.9, 2L -> 0.5, 3L -> 0.2, 9L -> 0.0).withDefaultValue(0.0)
    val n = Metrics.ndcgAtK(Seq(9L, 3L, 2L), Seq(1L, 2L, 3L), 3, jn)
    assert(n < 1.0 && n >= 0.0)
  }
  test("ndcgAtK can exceed precision when high-jn items are retrieved") {
    val jn = Map(1L -> 0.9, 2L -> 0.89, 3L -> 0.2).withDefaultValue(0.0)
    // Retrieved item 2 (not in exact top-1) has nearly the same gain.
    val n = Metrics.ndcgAtK(Seq(2L), Seq(1L), 1, jn)
    assert(n > 0.9)
  }
  test("ndcgAtK with a zero-gain exact ranking handles division safely") {
    val jn = Map.empty[Long, Double].withDefaultValue(0.0)
    val n = Metrics.ndcgAtK(Seq(1L), Seq(2L), 1, jn)
    assert(!n.isNaN && !n.isInfinite)
  }
  test("mean of empty is 0") {
    assert(Metrics.mean(Seq.empty) == 0.0)
  }
  test("mean averages") {
    assert(Metrics.mean(Seq(1.0, 2.0, 3.0)) == 2.0)
  }
  // Pooled P/R/F1 (Table 7) of a single query, via pooledPrfMicro.
  test("pooledPrf computes precision, recall and F1") {
    val pool = Set(1L, 2L, 3L, 4L)
    val isJoinable = Set(1L, 2L, 3L)
    val (p, r, f1) = Metrics.pooledPrfMicro(Seq((Seq(1L, 2L, 4L), pool)),
      (_, id) => isJoinable.contains(id))
    assert(math.abs(p - 2.0 / 3) < 1e-9)
    assert(math.abs(r - 2.0 / 3) < 1e-9)
    assert(math.abs(f1 - 2.0 / 3) < 1e-9)
  }
  test("pooledPrf with nothing retrieved is all zeros") {
    val (p, r, f1) = Metrics.pooledPrfMicro(Seq((Seq.empty, Set(1L))), (_, _) => true)
    assert(p == 0.0 && r == 0.0 && f1 == 0.0)
  }
  test("pooledPrf with an empty relevant pool has zero recall") {
    val (_, r, _) = Metrics.pooledPrfMicro(Seq((Seq(1L), Set(1L))), (_, _) => false)
    assert(r == 0.0)
  }
  test("pooledPrfMicro aggregates across queries") {
    val perQuery = Seq(
      (Seq(1L, 2L), Set(1L, 2L, 3L)), // tp=1 of {1}: say only 1 joinable
      (Seq(4L), Set(4L, 5L)))         // tp=1 of {4}
    val joinable = Set(1L, 3L, 4L)
    val (p, r, f1) = Metrics.pooledPrfMicro(perQuery, (_, id) => joinable.contains(id))
    // tp = 2, retrieved = 3, relevant = 3 (1,3 in pool1; 4 in pool2)
    assert(math.abs(p - 2.0 / 3) < 1e-9)
    assert(math.abs(r - 2.0 / 3) < 1e-9)
    assert(f1 > 0.0)
  }
  test("perfect retrieval gives F1 = 1") {
    val (p, r, f1) = Metrics.pooledPrfMicro(Seq((Seq(1L, 2L), Set(1L, 2L))),
      (_, id) => Set(1L, 2L).contains(id))
    assert(p == 1.0 && r == 1.0 && f1 == 1.0)
  }
}
