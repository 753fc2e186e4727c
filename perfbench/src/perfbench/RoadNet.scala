package perfbench

import perfbench.Workload._
import repro.core._
import repro.eval.Workloads
import repro.network.{NetDist, NetTrajGen, RoadNetwork}

import scala.util.Random

/** Top-10 CMA search over node walks on the Beijing road network: NetERP and
  * NetEDR on node ids, SURS on the walks' edge ids. The only workload where
  * `RoadNetwork.dist` (a locked, unbounded cache of Dijkstra rows) is called
  * for every NetERP/NetEDR cost evaluation; SURS prices edits from edge
  * weights alone.
  *
  * The walks are the Beijing workload's own trajectories map-matched to the
  * network they were generated on: every point is snapped to its nearest
  * node and repeats are collapsed. Data walks are `Workloads.dataLocal`
  * (nData = 25, 2000–3000 points, so about 250–380 nodes at one node per
  * grid cell of 8 sampling steps); queries are `Workloads.queries`, the
  * spec's perturbed 100–200-point sub-trajectories of held-out
  * trajectories. They span 13–25 cells, and the spec's outliers and jitter
  * add short detours, so they have about 25–70 nodes.
  */
final class RoadNet(seed: Long) extends Workload {

  val exact = true
  private val K = 10
  private val spec = Workloads.beijing.copy(nQueries = 192, seed = seed)
  // One grid cell (NetTrajGen: 8 sampling steps), the walks' resolution.
  private val edrEps = spec.gen.stepKm * 8

  private var net: RoadNetwork = _
  private var fns: Seq[WedFn[Int]] = Nil
  private var nodeData: Array[(Long, IndexedSeq[Int])] = Array.empty
  private var edgeData: Array[(Long, IndexedSeq[Int])] = Array.empty
  private var queries: Array[(Array[Int], Array[Int])] = Array.empty // (nodes, edges)
  // Cost evaluations of each of the first `Counted` traced queries; -1 for
  // SURS queries, whose costs never reach `dist`.
  private val evals = Array.fill(Counted)(-1L)

  def pairs: Int = queries.length

  private def isEdges(fn: WedFn[Int]): Boolean = fn.name == "SURS"

  private def pair(k: Int): (IndexedSeq[Int], WedFn[Int]) = {
    val fn = fns(k % fns.length)
    val (nodes, edges) = queries(k)
    (wrap(if (isEdges(fn)) edges else nodes), fn)
  }

  private def dataFor(fn: WedFn[Int]) = if (isEdges(fn)) edgeData else nodeData

  /** Nearest node of every point, consecutive repeats collapsed. */
  private def snap(pts: Array[Point]): Array[Int] = {
    val nodes = pts.map(net.nearestNode)
    nodes.head +: nodes.sliding(2).collect { case Array(a, b) if a != b => b }.toArray
  }

  /** Builds a fresh `RoadNetwork` over the generator's shared graph, so
    * every set-up starts with an empty `dist` cache, then warms up: it fills
    * the cache row of every query and data node, then answers the first
    * pairs.
    */
  def setup(): Unit = {
    val shared = NetTrajGen.networkFor(spec.gen, seed)
    net = new RoadNetwork(shared.xs, shared.ys, shared.adj)
    val center = net.nearestNode(spec.erpCenter)
    fns = Seq(NetDist.netErp(net, center), NetDist.netEdr(net, edrEps), NetDist.surs(net))
    val walks = Workloads.dataLocal(spec).map(t => snap(t.points))
    nodeData = walks.zipWithIndex.map { case (w, i) => (i.toLong, wrap(w)) }
    edgeData = walks.zipWithIndex.map { case (w, i) => (i.toLong, wrap(net.walkEdges(w))) }
    queries = Workloads.queries(spec).map { q => val nodes = snap(q); (nodes, net.walkEdges(nodes)) }
    require(queries.forall(_._2.nonEmpty) && edgeData.forall(_._2.nonEmpty), "a walk has no edges")
    (queries.flatMap(_._1) ++ walks.flatten).distinct.foreach(net.dist(_, center))
    (0 until WarmupPairs).foreach(run(_, Trace.Off))
  }

  def run(k: Int, tr: Trace): Array[Double] = {
    val (q, fn0) = pair(k)
    val counter = if (tr.on && !isEdges(fn0)) new CountingCosts(fn0.costs) else null
    val fn = if (counter != null) WedFn(fn0.name, counter) else fn0
    val search: (IndexedSeq[Int], IndexedSeq[Int]) => SubtrajResult =
      if (tr.on) (a, b) => tr.span("core.cma", a.length.toLong * b.length, fn.name)(CMA.search(a, b, fn))
      else (a, b) => CMA.search(a, b, fn)
    val hits = tr.span("core.topk")(TopK.search(q, dataFor(fn0), K, search))
    if (counter != null && tr.currentQuery < Counted) evals(tr.currentQuery) = counter.n
    hits.map(_.dist)
  }

  /** All-pairs distances from `RoadNetwork.dijkstra`, bypassing `dist`. */
  private lazy val allPairs: Array[Array[Double]] = Array.tabulate(net.nNodes)(net.dijkstra)

  private lazy val refFns: Map[String, WedFn[Int]] = {
    val center = net.nearestNode(spec.erpCenter)
    val d = allPairs
    Map(
      "NetERP" -> WedFn("NetERP", new WedCosts[Int] {
        def sub(a: Int, b: Int): Double = d(a)(b)
        def del(a: Int): Double = d(a)(center)
        def ins(b: Int): Double = d(b)(center)
      }),
      "NetEDR" -> WedFn("NetEDR", new WedCosts[Int] {
        def sub(a: Int, b: Int): Double = if (a == b || d(a)(b) <= edrEps) 0.0 else 1.0
        def del(a: Int): Double = 1.0
        def ins(b: Int): Double = 1.0
      }),
      "SURS" -> NetDist.surs(net))
  }

  def reference(k: Int): Array[Double] = {
    val (q, fn) = pair(k)
    TopK.cma(q, dataFor(fn), K, refFns(fn.name)).map(_.dist)
  }

  def layers(tr: Trace, queries: Int): Map[String, Double] = {
    val (cmaNs, _) = tr.total("core.cma")
    Map(
      "core.cma_calls"     -> tr.countBelow("core.cma", Counted).toDouble / Counted,
      "core.cma_cells"     -> tr.workBelow("core.cma", Counted).toDouble / Counted,
      "core.cma_ms"        -> cmaNs / 1e6 / queries,
      "network.cost_evals" -> { val ns = evals.filter(_ >= 0); ns.sum.toDouble / ns.length },
    ) ++ fns.map { fn =>
      val (ns, cells) = tr.total("core.cma", fn.name)
      s"core.cma_ns_per_cell.${fn.name}" -> ns.toDouble / cells
    } ++ replays()
  }

  /** `dist` on node pairs drawn from the queries and the data, and
    * `dijkstra` from sampled sources.
    */
  private def replays(): Map[String, Double] = {
    val r = new Random(seed)
    val qNodes = queries.flatMap(_._1)
    val dNodes = nodeData.flatMap(_._2)
    val n = 200000
    val as = Array.fill(n)(qNodes(r.nextInt(qNodes.length)))
    val bs = Array.fill(n)(dNodes(r.nextInt(dNodes.length)))
    var sink = 0.0
    val distNs = replay(5, n) { var i = 0; while (i < n) { sink += net.dist(as(i), bs(i)); i += 1 } }
    val srcs = Array.fill(20)(r.nextInt(net.nNodes))
    val dijNs = replay(5, srcs.length)(srcs.foreach(s => sink += net.dijkstra(s)(0)))
    require(!sink.isNaN)
    Map("network.dist_ns" -> distNs, "network.dijkstra_ms" -> dijNs / 1e6)
  }

  def inputsDigest: String =
    digest((queries.iterator.flatMap { case (a, b) => Iterator(a, b) } ++
            nodeData.iterator.map(_._2.toArray)).map(_.map(_.toDouble)))
}

/** Counts every cost evaluation CMA makes (traced runs only). */
final class CountingCosts(c: WedCosts[Int]) extends WedCosts[Int] {
  var n = 0L
  def sub(a: Int, b: Int): Double = { n += 1; c.sub(a, b) }
  def del(a: Int): Double = { n += 1; c.del(a) }
  def ins(b: Int): Double = { n += 1; c.ins(b) }
}
