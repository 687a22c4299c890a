package perfbench

import repro.core._

/** The `DaskMeans.run` loop (default configuration: centroid index and
  * inter bounds on) driven through the program's public per-layer calls,
  * with a span around each call. The benchmark checks that it ends with
  * exactly `DaskMeans.run`'s centroids, assignments and counts, which
  * shows the traced loop is the same program.
  *
  * Span tree: `run` → `leaf_capacity` (the workload's choice of f, through
  * `MemoryEstimator.leafCapacityFor` where it has a budget),
  * `point_index.build`, then per iteration `iteration`
  * → `centroid_index.build`, `inter_bounds`, `assign`, `refine`. Work
  * outside those calls (assignment-state set-up, convergence test,
  * materialising assignments) stays in the `run`/`iteration` self time and
  * is reported as `trace.unattributed_s`.
  */
object TracedDaskMeans {

  final case class Outcome(
      centroids: Array[Array[Double]],
      assignments: Array[Int],
      iterations: Int,
      distances: Long,
      pruned: Long,
      tree: BallTree.Built,
      tracer: Tracer,
  )

  val Phases: Seq[String] = Seq("leaf_capacity", "point_index.build", "centroid_index.build", "inter_bounds", "assign", "refine")

  def run(
      data: Array[Array[Double]],
      k: Int,
      maxIters: Int,
      init: Array[Array[Double]],
      leafCapacity: () => Int,
      runId: String,
  ): Outcome = {
    require(maxIters >= 1, "need at least one iteration")
    val counter = new DistanceCounter
    val tr = new Tracer(runId, counter)
    tr.span("run") {
      val f = tr.span("leaf_capacity")(leafCapacity())
      val tree = tr.span("point_index.build")(BallTree.build(data, f))
      val state = new TreeAssignmentState(data, tree, k)
      var centroids = init.map(_.clone())
      var cb: Array[Double] = new Array[Double](k)
      val drifts = new Array[Double](k)
      var pruned = 0L
      var it = 0
      var converged = false
      while (it < maxIters && !converged) tr.span("iteration") {
        val index = tr.span("centroid_index.build") {
          if (k > 1) new CentroidIndex(centroids, f, counter) else null
        }
        cb = tr.span("inter_bounds")(DaskAssign.interBounds(centroids, index, first = it == 0, cb, drifts, counter))
        pruned += tr.span("assign")(DaskAssign.step(state, centroids, cb, index, counter))
        centroids = tr.span("refine")(state.refine(centroids, drifts))
        it += 1
        converged = KMeans.maxDrift(drifts) <= KMeans.Eps
      }
      Outcome(centroids, state.materialize(), it, counter.count, pruned, tree, tr)
    }
  }

  /** True when a traced outcome is bitwise the same run as `r`. */
  def sameRun(o: Outcome, r: KMeansResult): Boolean =
    o.iterations == r.iterations &&
      o.distances == r.distanceComputations &&
      o.pruned == r.batchPrunedVectors &&
      java.util.Arrays.equals(o.assignments, r.assignments) &&
      o.centroids.length == r.centroids.length &&
      o.centroids.indices.forall(j => java.util.Arrays.equals(o.centroids(j), r.centroids(j)))
}
