package perfbench

import repro.estimator.MemoryEstimator

/** One benchmark input: a `repro.spatial` dataset at a fixed size and the
  * fit that runs on it. The seed given on the command line picks the data
  * (generator seed) and the initial centroids; nothing else varies.
  */
sealed trait Workload {
  def name: String
  def dataset: String
  def n: Long
  def k: Int
  def maxIters: Int
}

/** A single-threaded `DaskMeans.run` whose leaf capacity f comes from a
  * device memory budget: every rep first derives f through
  * `MemoryEstimator.leafCapacityFor` (budget counted in Table VII's 4-byte
  * units), as a memory-constrained user would.
  */
final case class SerialWorkload(
    name: String,
    dataset: String,
    n: Long,
    k: Int,
    maxIters: Int,
    budgetMb: Double,
) extends Workload {
  def leafCapacityFor(d: Int): Int =
    MemoryEstimator
      .leafCapacityFor(n, k.toLong, d.toLong, (budgetMb * 1e6 / 4).toLong)
      .getOrElse(throw new IllegalArgumentException(s"budget $budgetMb MB infeasible for $name"))
}

/** `Simplify.simplify` on a persisted DataFrame: DataFrame in, k weighted
  * representatives collected out. Partitions follow the session's default
  * parallelism (the benchmark runs Spark as `local[4]`).
  */
final case class SparkWorkload(
    name: String,
    dataset: String,
    n: Long,
    k: Int,
    maxIters: Int,
    leafCapacity: Int,
) extends Workload

object Workloads {

  /** Sizes are chosen so that one run, including the Lloyd reference that
    * checks it, fits the benchmark's per-run time limit on a 4-core
    * machine; see README.md for each workload's rationale.
    */
  val all: Seq[Workload] = Seq(
    SerialWorkload("serial-budget", "T-drive", 400_000L, 100, 10, budgetMb = 8.0),
    SparkWorkload("spark-simplify", "T-drive", 120_000L, 400, 10, leafCapacity = 30),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** The same workload at a size small enough for unit tests. */
  def tiny(w: Workload): Workload = w match {
    case s: SerialWorkload =>
      s.copy(n = math.min(s.n, 3_000L), k = math.min(s.k, 20), budgetMb = 0.05)
    case s: SparkWorkload => s.copy(n = math.min(s.n, 3_000L), k = math.min(s.k, 20))
  }
}
