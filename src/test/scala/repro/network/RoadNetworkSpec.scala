package repro.network

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Road-network substrate: Dijkstra vs Floyd–Warshall, metric properties,
  * and CMA exactness under the Appendix-D functions (NetERP, NetEDR, SURS).
  */
class RoadNetworkSpec extends AnyFunSuite {

  private lazy val net = RoadNetwork.grid(5, 5, 1.0, seed = 7)

  private def floydWarshall(n: RoadNetwork): Array[Array[Double]] = {
    val v = n.nNodes
    val D = Array.fill(v, v)(Double.PositiveInfinity)
    for (i <- 0 until v) D(i)(i) = 0.0
    for (u <- 0 until v; (w, wt) <- n.adj(u)) D(u)(w) = math.min(D(u)(w), wt)
    for (k <- 0 until v; i <- 0 until v; j <- 0 until v)
      if (D(i)(k) + D(k)(j) < D(i)(j)) D(i)(j) = D(i)(k) + D(k)(j)
    D
  }

  test("Dijkstra == Floyd-Warshall on the grid graph") {
    val fw = floydWarshall(net)
    for (src <- Seq(0, 7, 12, 24)) {
      val dj = net.dijkstra(src)
      for (v <- 0 until net.nNodes)
        TestGen.assertSameDist(dj(v), fw(src)(v), 1e-9)
    }
  }

  test("network distance is symmetric (bidirectional edges)") {
    for (a <- Seq(0, 3, 11); b <- Seq(5, 17, 24))
      TestGen.assertSameDist(net.dist(a, b), net.dist(b, a), 1e-9)
  }

  test("network distance satisfies the triangle inequality") {
    for (a <- Seq(0, 8); b <- Seq(12, 20); c <- Seq(4, 24))
      assert(net.dist(a, c) <= net.dist(a, b) + net.dist(b, c) + 1e-9)
  }

  test("network distance to self is zero, to neighbors positive") {
    assert(net.dist(6, 6) == 0.0)
    for ((v, w) <- net.adj(6)) {
      assert(net.dist(6, v) > 0.0)
      assert(net.dist(6, v) <= w + 1e-9) // direct edge is an upper bound
    }
  }

  test("nearestNode snaps points to a grid node") {
    val v = net.nearestNode(Point(2.0, 3.0))
    assert(v >= 0 && v < net.nNodes)
    val d = Point(net.xs(v), net.ys(v)).distTo(Point(2.0, 3.0))
    for (u <- 0 until net.nNodes)
      assert(Point(net.xs(u), net.ys(u)).distTo(Point(2.0, 3.0)) >= d - 1e-12)
  }

  test("walk produces adjacent node sequences deterministically") {
    val w1 = net.walk(0, 12, seed = 3)
    val w2 = net.walk(0, 12, seed = 3)
    assert(w1.toSeq == w2.toSeq)
    for (Array(a, b) <- w1.sliding(2))
      assert(net.adj(a).exists(_._1 == b), s"$a -> $b not an edge")
  }

  test("walkEdges maps a walk to consecutive edge ids") {
    val w = net.walk(5, 10, seed = 4)
    val es = net.walkEdges(w)
    assert(es.length == w.length - 1)
    for ((e, k) <- es.zipWithIndex) {
      val (u, v, _) = net.edges(e)
      assert(u == w(k) && v == w(k + 1))
    }
    // Same ids as a (u, v) -> last index map over `edges`, on random walks
    // and on node sequences with non-adjacent steps (which are skipped).
    val idx = net.edges.zipWithIndex.map { case ((u, v, _), i) => (u, v) -> i }.toMap
    def viaMap(ns: Array[Int]): Seq[Int] =
      ns.toSeq.sliding(2).collect { case Seq(u, v) if idx.contains((u, v)) => idx((u, v)) }.toSeq
    val r = new scala.util.Random(11)
    for (seed <- 0 until 40) {
      val walk = net.walk(r.nextInt(net.nNodes), 1 + r.nextInt(30), seed)
      assert(net.walkEdges(walk).toSeq == viaMap(walk))
      val jumpy = Array.fill(1 + r.nextInt(12))(r.nextInt(net.nNodes))
      assert(net.walkEdges(jumpy).toSeq == viaMap(jumpy))
    }
    assert(net.walkEdges(Array.empty[Int]).isEmpty)
  }

  // --- the shortest-path cache under concurrent use ---
  private def inParallel[A](threads: Int)(body: Int => A): Seq[A] = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    try {
      val start = new java.util.concurrent.CountDownLatch(1)
      val fs = (0 until threads).map { t =>
        pool.submit(new java.util.concurrent.Callable[A] {
          def call(): A = { start.await(); body(t) }
        })
      }
      start.countDown()
      fs.map(_.get(60, java.util.concurrent.TimeUnit.SECONDS))
    } finally pool.shutdownNow()
  }

  test("dist from 8 threads on a cold cache equals dijkstra") {
    val fresh = RoadNetwork.grid(9, 9, 1.0, seed = 13)
    val pairs = inParallel(8) { t =>
      val r = new scala.util.Random(t)
      Array.fill(3000) {
        val a = r.nextInt(fresh.nNodes); val b = r.nextInt(fresh.nNodes)
        (a, b, fresh.dist(a, b))
      }
    }
    val rows = Array.tabulate(fresh.nNodes)(fresh.dijkstra)
    for (ps <- pairs; (a, b, got) <- ps) assert(got == rows(a)(b), s"dist($a, $b)")
  }

  test("NetERP top-K from 4 threads == single-threaded") {
    def setup(n: RoadNetwork) = {
      val r = new scala.util.Random(5)
      val data = (0 until 12).map(i => (i.toLong, n.walk(r.nextInt(n.nNodes), 20 + r.nextInt(20), i).toIndexedSeq))
      val qs = (0 until 8).map(i => n.walk(r.nextInt(n.nNodes), 4 + r.nextInt(6), 100 + i).toIndexedSeq)
      (data, qs, NetDist.netErp(n, center = n.nNodes / 2))
    }
    val (data, qs, fn) = setup(RoadNetwork.grid(9, 9, 1.0, seed = 17))
    val got = inParallel(4)(t => qs.map(q => TopK.cma(q, data, 3, fn).toSeq))
    val (data1, qs1, fn1) = setup(RoadNetwork.grid(9, 9, 1.0, seed = 17))
    val want = qs1.map(q => TopK.cma(q, data1, 3, fn1).toSeq)
    for (g <- got) assert(g == want)
  }

  // --- Appendix-D distance functions: CMA remains exact ---
  private def nodeWalkPair(seed: Int): (IndexedSeq[Int], IndexedSeq[Int]) = {
    val r = new scala.util.Random(seed)
    val d = net.walk(r.nextInt(net.nNodes), 4 + r.nextInt(10), seed).toIndexedSeq
    val q =
      if (r.nextBoolean() && d.length > 3) d.slice(1, 1 + math.min(4, d.length - 1))
      else net.walk(r.nextInt(net.nNodes), 1 + r.nextInt(4), seed + 1).toIndexedSeq
    (q, d)
  }

  for (seed <- 0 until 10)
    test(s"CMA == brute force under NetERP [seed=$seed]") {
      val fn = NetDist.netErp(net, center = 12)
      val (q, d) = nodeWalkPair(seed * 71 + 1)
      val cm = CMA.search(q, d, fn)
      TestGen.assertSameDist(cm.dist, BruteForce.search(q, d, fn).dist)
    }

  for (seed <- 0 until 10)
    test(s"CMA == brute force under NetEDR [seed=$seed]") {
      val fn = NetDist.netEdr(net, eps = 1.2)
      val (q, d) = nodeWalkPair(seed * 73 + 2)
      val cm = CMA.search(q, d, fn)
      TestGen.assertSameDist(cm.dist, BruteForce.search(q, d, fn).dist)
    }

  for (seed <- 0 until 10)
    test(s"CMA == brute force under SURS [seed=$seed]") {
      val fn = NetDist.surs(net)
      val r = new scala.util.Random(seed * 79 + 3)
      val d = net.walkEdges(net.walk(r.nextInt(net.nNodes), 5 + r.nextInt(8), seed)).toIndexedSeq
      val q = net.walkEdges(net.walk(r.nextInt(net.nNodes), 2 + r.nextInt(4), seed + 5)).toIndexedSeq
      if (q.nonEmpty && d.nonEmpty) {
        val cm = CMA.search(q, d, fn)
        TestGen.assertSameDist(cm.dist, BruteForce.search(q, d, fn).dist)
      }
    }

  test("NetEDR distance of a walk with itself is 0 via CMA") {
    val d = net.walk(3, 8, seed = 6).toIndexedSeq
    val fn = NetDist.netEdr(net, eps = 0.1)
    val r = CMA.search(d, d, fn)
    assert(r.dist == 0.0)
  }

  test("SURS substitution cost is the sum of both edge weights") {
    val fn = NetDist.surs(net)
    val WedFn(_, c) = fn
    val w = net.edges.map(_._3)
    assert(c.sub(0, 0) == 0.0)
    TestGen.assertSameDist(c.sub(0, 1), w(0) + w(1))
    TestGen.assertSameDist(c.del(2), w(2))
    TestGen.assertSameDist(c.ins(3), w(3))
  }
}
