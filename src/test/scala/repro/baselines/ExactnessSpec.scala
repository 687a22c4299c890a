package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core._

/** The correctness matrix: every accelerated algorithm is an *exact*
  * acceleration of Lloyd's — identical single-step assignments and
  * Lloyd-equal trajectories over full runs.
  */
class ExactnessSpec extends AnyFunSuite {

  private def suite(f: Int = 16): Seq[KMeansAlgo] = Seq(
    new NoBound,
    new DualTree(leafCapacity = 8),
    new Hamerly,
    new Drake,
    new Yinyang,
    new Elkan,
    new DaskMeans(useInterBound = false, leafCapacity = f),
    new DaskMeans(useKnn = false, leafCapacity = f),
    new DaskMeans(leafCapacity = f),
  )

  private val configs = Seq(
    // (n, d, centers, spread, k, seed)
    (600, 2, 8, 3.0, 5, 1L),
    (900, 3, 10, 5.0, 24, 2L),
    (1200, 2, 15, 1.5, 60, 3L),
    (500, 5, 6, 8.0, 11, 4L),
    (800, 3, 0, 0.0, 37, 5L), // uniform (centers=0 → uniform)
  )

  private def dataFor(c: (Int, Int, Int, Double, Int, Long)): Array[Array[Double]] = {
    val (n, d, centers, spread, _, seed) = c
    if (centers == 0) TestData.uniform(n, d, seed)
    else TestData.blobs(n, d, centers, spread, seed)
  }

  test("single assignment phase identical to Lloyd for every algorithm") {
    configs.foreach { c =>
      val (n, _, _, _, k, seed) = c
      val data = dataFor(c)
      val init = KMeans.initCentroids(data, k, seed)
      val ref = new Lloyd().run(data, k, 1, init)
      suite().foreach { algo =>
        val r = algo.run(data, k, 1, init)
        assert(
          r.assignments.sameElements(ref.assignments),
          s"${algo.name} diverges from Lloyd in one step (n=$n k=$k): " +
            s"first diff at ${r.assignments.zip(ref.assignments).indexWhere(p => p._1 != p._2)}",
        )
      }
    }
  }

  test("full runs match Lloyd's SSE, iterations, and centroids") {
    configs.foreach { c =>
      val (n, _, _, _, k, seed) = c
      val data = dataFor(c)
      val init = KMeans.initCentroids(data, k, seed)
      val ref = new Lloyd().run(data, k, 15, init)
      val refSse = ref.sse(data)
      suite().foreach { algo =>
        val r = algo.run(data, k, 15, init)
        assert(r.iterations == ref.iterations, s"${algo.name}: ${r.iterations} vs ${ref.iterations} iters (n=$n k=$k)")
        val err = math.abs(r.sse(data) - refSse) / math.max(1.0, refSse)
        assert(err < 1e-9, s"${algo.name}: SSE ${r.sse(data)} vs $refSse (n=$n k=$k)")
        r.centroids.indices.foreach { j =>
          assert(Vec.dist(r.centroids(j), ref.centroids(j)) < 1e-6,
            s"${algo.name}: centroid $j drifted (n=$n k=$k)")
        }
      }
    }
  }

  test("final assignments match Lloyd after multiple iterations") {
    val c = configs(1)
    val data = dataFor(c)
    val init = KMeans.initCentroids(data, c._5, c._6)
    val ref = new Lloyd().run(data, c._5, 10, init)
    suite().foreach { algo =>
      val r = algo.run(data, c._5, 10, init)
      val mismatches = r.assignments.zip(ref.assignments).count(p => p._1 != p._2)
      assert(mismatches == 0, s"${algo.name}: $mismatches assignment mismatches")
    }
  }

  test("all algorithms agree on k=2") {
    val data = TestData.blobs(300, 2, 2, 2.0, 7L)
    val init = KMeans.initCentroids(data, 2, 7L)
    val ref = new Lloyd().run(data, 2, 10, init)
    suite().foreach { algo =>
      val r = algo.run(data, 2, 10, init)
      assert(r.assignments.sameElements(ref.assignments), algo.name)
    }
  }

  test("empty clusters are handled identically (k close to n over blobs)") {
    val data = TestData.blobs(120, 2, 2, 0.3, 8L)
    val init = KMeans.initCentroids(data, 40, 8L)
    val ref = new Lloyd().run(data, 40, 8, init)
    suite(f = 4).foreach { algo =>
      val r = algo.run(data, 40, 8, init)
      val err = math.abs(r.sse(data) - ref.sse(data)) / math.max(1.0, ref.sse(data))
      assert(err < 1e-9, s"${algo.name}: SSE mismatch with emptied clusters")
    }
  }

  test("tie-heavy integer grid: same assignments and iterations as Lloyd") {
    // Dask-means, NoInB, Drake and Yinyang are left out: they do not yet
    // break exact ties by the lowest centroid index (ROADMAP item 1).
    val tieExact = Seq(
      new NoBound,
      new DualTree(leafCapacity = 8),
      new Hamerly,
      new Elkan,
      new DaskMeans(useKnn = false, leafCapacity = 16),
      new DaskMeans(useKnn = false, useInterBound = false, leafCapacity = 16),
    )
    val k = 50
    for (seed <- 1L to 3L; iters <- Seq(1, 10)) {
      val data = TestData.grid(4000, 20, seed)
      val init = KMeans.initCentroids(data, k, seed)
      val ref = new Lloyd().run(data, k, iters, init)
      tieExact.foreach { algo =>
        val r = algo.run(data, k, iters, init)
        val diffs = r.assignments.zip(ref.assignments).count(p => p._1 != p._2)
        assert(diffs == 0, s"${algo.name}: $diffs assignments differ (seed=$seed iters=$iters)")
        assert(r.iterations == ref.iterations, s"${algo.name}: ${r.iterations} vs ${ref.iterations} iters (seed=$seed)")
      }
    }
  }

  test("accelerators compute no more distances than Lloyd on clusterable data") {
    val data = TestData.blobs(3000, 2, 25, 1.0, 9L)
    val k = 50
    val init = KMeans.initCentroids(data, k, 9L)
    val ref = new Lloyd().run(data, k, 10, init)
    for (algo <- Seq(new Hamerly, new Elkan, new Yinyang, new DaskMeans(): KMeansAlgo)) {
      val r = algo.run(data, k, 10, init)
      assert(r.distanceComputations < ref.distanceComputations,
        s"${algo.name}: ${r.distanceComputations} >= Lloyd ${ref.distanceComputations}")
    }
  }
}
