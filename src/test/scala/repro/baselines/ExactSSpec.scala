package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** ExactS: exactness against brute force and the all-subtrajectory matrix
  * used by the Table-2 metrics.
  */
class ExactSSpec extends AnyFunSuite {

  for (fn <- TestGen.pointFns; seed <- 0 until 15)
    test(s"ExactS == brute force [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 11 + 2)
      val es = ExactS.search(q, d, fn)
      val bf = BruteForce.search(q, d, fn)
      TestGen.assertSameDist(es.dist, bf.dist)
      TestGen.assertSameDist(FullDist.dist(q, d.slice(es.start - 1, es.end), fn), es.dist)
    }

  for (fn <- TestGen.pointFns; seed <- 0 until 6)
    test(s"allDistances cell == sliced full distance [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 29 + 5, mMax = 6, nMax = 12)
      val all = ExactS.allDistances(q, d, fn)
      val n = d.length
      for (i <- 1 to n; j <- i to n)
        TestGen.assertSameDist(all(i - 1)(j - 1), FullDist.dist(q, d.slice(i - 1, j), fn))
      for (i <- 1 to n; j <- 1 until i)
        assert(all(i - 1)(j - 1).isPosInfinity)
    }

  for (fn <- TestGen.pointFns; seed <- 0 until 6)
    test(s"ExactS == CMA (both exact) [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 37 + 8)
      TestGen.assertSameDist(ExactS.search(q, d, fn).dist, CMA.search(q, d, fn).dist)
    }

  test("allDistances rejects empty trajectories, as search does") {
    val p = IndexedSeq(Point(0, 0))
    for ((q, d) <- Seq((IndexedSeq.empty[Point], p), (p, IndexedSeq.empty[Point]))) {
      assertThrows[IllegalArgumentException](ExactS.allDistances(q, d, Dist.dtw))
      assertThrows[IllegalArgumentException](ExactS.search(q, d, Dist.dtw))
    }
  }

  test("allDistances matrix minimum equals the search result") {
    for (fn <- TestGen.pointFns) {
      val (q, d) = TestGen.randPair(123)
      val all = ExactS.allDistances(q, d, fn)
      val mn = all.iterator.flatMap(_.iterator).filterNot(_.isInfinite).min
      TestGen.assertSameDist(mn, ExactS.search(q, d, fn).dist)
    }
  }
}
