package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.rl.{QTable, RLS}
import repro.core._

/** The approximate baselines (POS, PSS, RLS, RLS-Skip) have no optimality
  * guarantee, but they must always return a *valid, honestly-scored*
  * interval: the distance their scan reports is, bit for bit, the full
  * distance of the interval, and therefore lower-bounded by the exact
  * optimum.
  */
class ApproxSpec extends AnyFunSuite {

  private lazy val policies: Map[String, (QTable, QTable)] = {
    val pairs = (0 until 5).map(s => TestGen.randPair(s + 900, mMax = 6, nMax = 16))
    TestGen.pointFns.map { fn =>
      fn.name -> (RLS.train(pairs, fn, skip = false, seed = 1),
                  RLS.train(pairs, fn, skip = true, seed = 2))
    }.toMap
  }

  private def checkValid[T](name: String, r: SubtrajResult,
                            q: IndexedSeq[Point], d: IndexedSeq[Point],
                            fn: DistFn[Point]): Unit = {
    assert(r.start >= 1 && r.end <= d.length && r.start <= r.end, s"$name interval")
    val full = FullDist.dist(q, d.slice(r.start - 1, r.end), fn)
    assert(r.dist == full, s"$name reported ${r.dist}, the interval's full distance is $full")
    val opt = CMA.search(q, d, fn).dist
    assert(r.dist >= opt - 1e-9, s"$name returned below-optimal distance")
  }

  for (fn <- TestGen.pointFns; seed <- 0 until 12) {
    test(s"POS returns a valid interval [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 53 + 11)
      checkValid("POS", SplitSearch.pos(q, d, fn), q, d, fn)
    }
    test(s"PSS returns a valid interval [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 53 + 11)
      checkValid("PSS", SplitSearch.pss(q, d, fn), q, d, fn)
    }
  }

  for (fn <- TestGen.pointFns; seed <- 0 until 6) {
    test(s"RLS returns a valid interval [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 59 + 13)
      checkValid("RLS", RLS.search(q, d, fn, policies(fn.name)._1), q, d, fn)
    }
    test(s"RLS-Skip returns a valid interval [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 59 + 13)
      checkValid("RLS-Skip", RLS.search(q, d, fn, policies(fn.name)._2), q, d, fn)
    }
  }

  test("POS finds the exact window when the query is an unperturbed subsegment") {
    val r = new scala.util.Random(2)
    val d = TestGen.randPoints(r, 25)
    val q = d.slice(10, 16)
    val res = SplitSearch.pos(q, d, Dist.dtw)
    // not guaranteed optimal in general, but the zero-cost window should win
    assert(res.dist <= FullDist.dist(q, d.slice(9, 17), Dist.dtw) + 1e-9)
  }

  test("PSS suffix table matches direct suffix distances") {
    for (fn <- TestGen.pointFns; seed <- 0 until 3) {
      val (q, d) = TestGen.randPair(seed + 701, mMax = 5, nMax = 10)
      val suf = SplitSearch.suffixDists(q, d, fn)
      for (t <- 1 to d.length)
        TestGen.assertSameDist(suf(t), FullDist.dist(q, d.slice(t - 1, d.length), fn))
    }
  }

  test("RLS training is deterministic in the seed") {
    val pairs = (0 until 3).map(s => TestGen.randPair(s + 950, mMax = 5, nMax = 12))
    val p1 = RLS.train(pairs, Dist.dtw, skip = false, seed = 5)
    val p2 = RLS.train(pairs, Dist.dtw, skip = false, seed = 5)
    assert(p1.q.map(_.toSeq).toSeq == p2.q.map(_.toSeq).toSeq)
  }

  test("trained RLS beats the untrained policy on average (sanity of learning)") {
    val evalPairs = (0 until 10).map(s => TestGen.randPair(s + 970, mMax = 6, nMax = 18))
    val untrained = new QTable(RLS.NStates, 2)
    val trained   = policies("DTW")._1
    def cost(p: QTable): Double =
      evalPairs.map { case (q, d) => RLS.search(q, d, Dist.dtw, p).dist }.sum
    // trained should not be (meaningfully) worse
    assert(cost(trained) <= cost(untrained) * 1.25 + 1e-6)
  }
}
