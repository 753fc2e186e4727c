package perfbench

import perfbench.Workload._
import repro.core._
import repro.eval.{DatasetSpec, Workloads}
import repro.pruning.{GBP, KPF, Pruner}

/** Driver-side Algorithm-3 search, the Table-3 path: every query
  * materialises `Traj.points` for each data trajectory (as `Harness.table3`
  * does), then `Pruner.search` runs GBP, KPF and CMA on the survivors.
  * With several databases (`specs`), consecutive queries go to different
  * databases, so one run averages over more than one draw of the data; the
  * database count is coprime to the function count, so every database meets
  * every function.
  */
final class PrunedSearch(specs: Seq[DatasetSpec], params: Pruner.Params,
                         val exact: Boolean) extends Workload {

  private val fns = Workloads.distFns(specs.head)
  private var data: Array[Array[Traj]] = Array.empty
  private var queries: Array[Array[Array[Point]]] = Array.empty
  // Caller-owned pruning counts of the first `Counted` traced queries.
  private val counted = Pruner.Stats()

  def pairs: Int = queries.map(_.length).sum

  /** Database index, query and distance function of pair `k`. */
  private def pair(k: Int): (Int, Array[Point], DistFn[Point]) = {
    val db = k % specs.length
    (db, queries(db)(k / specs.length), fns(k % fns.length))
  }

  def setup(): Unit = {
    data = specs.map(Workloads.dataLocal).toArray
    queries = specs.map(Workloads.queries).toArray
    (0 until WarmupPairs).foreach(run(_, Trace.Off))
  }

  def run(k: Int, tr: Trace): Array[Double] = {
    val (db, q, fn) = pair(k)
    val pts = tr.span("core.traj_points", data(db).length) { data(db).map(t => (t.id, t.points)) }
    val stats = if (tr.on && tr.currentQuery < Counted) counted else Pruner.Stats()
    val searchOne: (Array[Point], Array[Point]) => SubtrajResult =
      if (tr.on) (a, b) => tr.span("core.cma", a.length.toLong * b.length, fn.name)(CMA.search(wrap(a), wrap(b), fn))
      else (a, b) => CMA.search(wrap(a), wrap(b), fn)
    val hit = tr.span("pruning.pipeline") { Pruner.search(q, pts, fn, params, searchOne, stats) }
    hit.map(_.dist).toArray
  }

  private lazy val refData: Array[Array[(Long, IndexedSeq[Point])]] =
    data.map(_.map(t => (t.id, wrap(t.points))))

  def reference(k: Int): Array[Double] = {
    val (db, q, fn) = pair(k)
    TopK.cma(wrap(q), refData(db), 1, fn).map(_.dist)
  }

  def layers(tr: Trace, queries: Int): Map[String, Double] = {
    val (ptsNs, ptsN) = tr.total("core.traj_points")
    val (cmaNs, _) = tr.total("core.cma")
    val (pipeNs, _) = tr.total("pruning.pipeline")
    val examined = counted.examined.toDouble
    val gbpPassed = counted.examined - counted.gbpPruned
    Map(
      "core.traj_points_us"   -> ptsNs / 1e3 / ptsN,
      "core.cma_calls"        -> tr.countBelow("core.cma", Counted).toDouble / Counted,
      "core.cma_cells"        -> tr.workBelow("core.cma", Counted).toDouble / Counted,
      "core.cma_ms"           -> cmaNs / 1e6 / queries,
      "pruning.pipeline_ms"   -> pipeNs / 1e6 / queries,
      "pruning.self_ms"       -> (pipeNs - cmaNs) / 1e6 / queries,
      "pruning.gbp_pass_ratio"  -> gbpPassed / examined,
      "pruning.kpf_prune_ratio" -> counted.kpfPruned.toDouble / math.max(gbpPassed, 1),
      "pruning.searched_ratio"  -> counted.searched / examined,
    ) ++ nsPerCell(tr) ++ replays()
  }

  private def nsPerCell(tr: Trace): Map[String, Double] = fns.map { fn =>
    val (ns, cells) = tr.total("core.cma", fn.name)
    s"core.cma_ns_per_cell.${fn.name}" -> (if (cells == 0) 0.0 else ns.toDouble / cells)
  }.toMap

  /** GBP and KPF replayed on the first pair of each distance function,
    * against that pair's database: GBP on every trajectory, KPF on the
    * trajectories GBP keeps (all of them when GBP is off), as the pipeline
    * would call them.
    */
  private def replays(): Map[String, Double] = {
    val sample = fns.indices.map(pair).map { case (db, q, fn) => (q, fn, data(db).map(_.points)) }
    val cells = sample.map { case (q, _, _) => GBP.queryCells(q, params.eps) }
    val gbpNs = replay(3, sample.map(_._3.length.toLong).sum) {
      sample.zip(cells).foreach { case ((_, _, pts), c) => pts.foreach(d => GBP.passes(c, d, params.eps, params.mu)) }
    }
    val kept = sample.zip(cells).map { case ((q, fn, pts), c) =>
      (wrap(q), fn, pts.filter(d => !params.useGBP || GBP.passes(c, d, params.eps, params.mu)).map(wrap(_)))
    }
    val kpfNs = replay(3, math.max(kept.map(_._3.length).sum, 1).toLong) {
      kept.foreach { case (q, fn, ds) => ds.foreach(d => KPF.estimate(q, d, fn, params.r)) }
    }
    Map("pruning.gbp_us_per_traj" -> gbpNs / 1e3, "pruning.kpf_us_per_call" -> kpfNs / 1e3)
  }

  def inputsDigest: String =
    digest(queries.iterator.flatten.flatMap(q => Iterator(q.map(_.x), q.map(_.y))) ++
           data.iterator.flatten.flatMap(t => Iterator(t.xs, t.ys)))
}

object PrunedSearch {

  /** Table-3 heuristic pipeline on Porto at the Table3Bench size. */
  def portoHeuristic(seed: Long): PrunedSearch = {
    val spec = Workloads.porto.copy(nData = 5000, nQueries = 64, seed = seed)
    new PrunedSearch(Seq(spec), Pruner.Params(eps = spec.gen.stepKm * 8, mu = 0.1, r = 0.05), exact = false)
  }

  /** Exact mode on Beijing: GBP off and KPF at r = 1, which Theorem B.1 makes
    * a sound lower bound, so every answer must equal the unpruned optimum.
    * A 25-trajectory database is a small sample (one draw can prune twice
    * as well as another), so each run searches 49 of them, four queries each.
    * With 25, p90 over ten seeds ranged from 59 to 93 ms, and rerunning a
    * seed mostly repeated its own value (correlation 0.85).
    */
  def beijingExact(seed: Long): PrunedSearch = {
    val specs = (0 until 49).map(j => Workloads.beijing.copy(nQueries = 4, seed = seed * 49 + j))
    new PrunedSearch(specs, Pruner.Params(eps = specs.head.gen.stepKm * 8, r = 1.0, useGBP = false), exact = true)
  }
}
